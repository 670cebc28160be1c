//! Column schemas.
//!
//! A [`Schema`] is an ordered list of named, typed [`Field`]s. TiMR's
//! convention (paper §III-A, footnote 2) is that **the first column of every
//! source, intermediate, and output dataset is `Time`** — the application
//! timestamp — which is how the framework transparently derives and maintains
//! temporal information across map-reduce stages. [`Schema::timestamped`]
//! builds schemas that follow the convention and [`Schema::is_timestamped`]
//! checks it.

use crate::error::{RelationError, Result};
use crate::value::Value;
use rustc_hash::FxHashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Name of the mandatory leading timestamp column.
pub const TIME_COLUMN: &str = "Time";

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Boolean.
    Bool,
    /// 32-bit integer.
    Int,
    /// 64-bit integer.
    Long,
    /// 64-bit float.
    Double,
    /// UTF-8 string.
    Str,
}

impl ColumnType {
    /// Whether `value` inhabits this type. `Null` inhabits every type.
    pub fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (ColumnType::Bool, Value::Bool(_))
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Long, Value::Long(_))
                | (ColumnType::Double, Value::Double(_))
                | (ColumnType::Str, Value::Str(_))
        )
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Bool => "bool",
            ColumnType::Int => "int",
            ColumnType::Long => "long",
            ColumnType::Double => "double",
            ColumnType::Str => "str",
        };
        write!(f, "{s}")
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Column name (unique within a schema).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

impl Field {
    /// Build a field.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Field {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered set of fields. Cheap to clone (fields live behind an `Arc`),
/// with a name→index map built once at construction so by-name lookup is
/// O(1) on every hot path (expression compilation, partitioners, codecs).
#[derive(Debug, Clone)]
pub struct Schema {
    fields: Arc<[Field]>,
    index: Arc<FxHashMap<String, usize>>,
}

/// Identity is the ordered field list; the index map is derived state.
impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.fields == other.fields
    }
}

impl Eq for Schema {}

impl Hash for Schema {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.fields.hash(state);
    }
}

impl Schema {
    /// Build a schema from fields. Panics if two fields share a name, which
    /// is a programming error in plan construction, not a data error.
    pub fn new(fields: Vec<Field>) -> Self {
        let mut index = FxHashMap::default();
        index.reserve(fields.len());
        for (i, f) in fields.iter().enumerate() {
            assert!(
                index.insert(f.name.clone(), i).is_none(),
                "duplicate column `{}` in schema",
                f.name
            );
        }
        Schema {
            fields: fields.into(),
            index: Arc::new(index),
        }
    }

    /// Build a schema whose first column is `Time: long` (TiMR convention),
    /// followed by the given payload fields.
    pub fn timestamped(payload: Vec<Field>) -> Self {
        let mut fields = vec![Field::new(TIME_COLUMN, ColumnType::Long)];
        fields.extend(payload);
        Schema::new(fields)
    }

    /// The fields, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of column `name` (O(1): hash lookup, not a field scan).
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| RelationError::UnknownColumn(name.to_string()))
    }

    /// Field named `name`.
    pub fn field(&self, name: &str) -> Result<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }

    /// Whether a column with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Whether the schema follows the TiMR convention of a leading
    /// `Time: long` column (paper §III-A footnote 2).
    pub fn is_timestamped(&self) -> bool {
        self.fields
            .first()
            .is_some_and(|f| f.name == TIME_COLUMN && f.ty == ColumnType::Long)
    }

    /// Concatenate two schemas, suffixing right-side duplicates with `.r`
    /// (used by joins to produce the combined payload).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut fields: Vec<Field> = self.fields.to_vec();
        for f in right.fields() {
            let name = if self.contains(&f.name) {
                format!("{}.r", f.name)
            } else {
                f.name.clone()
            };
            fields.push(Field::new(name, f.ty));
        }
        Schema::new(fields)
    }

    /// Project a subset of columns (by name, in the given order).
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let fields = names
            .iter()
            .map(|n| self.field(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        Ok(Schema::new(fields))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}", field.name, field.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bt_schema() -> Schema {
        // The unified BT schema of paper Fig 9.
        Schema::timestamped(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
            Field::new("KwAdId", ColumnType::Str),
        ])
    }

    #[test]
    fn timestamped_schema_leads_with_time() {
        let s = bt_schema();
        assert!(s.is_timestamped());
        assert_eq!(s.index_of("Time").unwrap(), 0);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn index_of_unknown_column_errors() {
        let s = bt_schema();
        assert!(matches!(
            s.index_of("Nope"),
            Err(RelationError::UnknownColumn(_))
        ));
    }

    #[test]
    fn join_disambiguates_duplicates() {
        let s = bt_schema();
        let joined = s.join(&s);
        assert_eq!(joined.len(), 8);
        assert!(joined.contains("UserId"));
        assert!(joined.contains("UserId.r"));
    }

    #[test]
    fn project_reorders_columns() {
        let s = bt_schema();
        let p = s.project(&["UserId", "Time"]).unwrap();
        assert_eq!(p.names(), vec!["UserId", "Time"]);
        assert!(!p.is_timestamped());
    }

    #[test]
    fn column_type_admits() {
        assert!(ColumnType::Long.admits(&Value::Long(1)));
        assert!(!ColumnType::Long.admits(&Value::Int(1)));
        assert!(ColumnType::Str.admits(&Value::Null));
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        Schema::new(vec![
            Field::new("A", ColumnType::Int),
            Field::new("A", ColumnType::Int),
        ]);
    }
}
