//! Property tests for the relational layer: the value order must be a
//! proper total order (normalization depends on it), and partition
//! placement must depend only on the key columns.

use proptest::prelude::*;
use relation::{hash, Row, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        any::<f64>().prop_map(Value::Double),
        // Strings with tabs, newlines, backslashes and quotes.
        "[a-z\t\n\\\\']{0,12}".prop_map(|s| Value::str(&s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn value_order_is_total_and_consistent(
        a in arb_value(),
        b in arb_value(),
        c in arb_value(),
    ) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity (spot-check the ≤ chain).
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
        // Eq consistency with hashing.
        if a == b {
            prop_assert_eq!(hash::stable_hash(&a), hash::stable_hash(&b));
        }
    }

    #[test]
    fn key_hash_is_stable_under_row_extension(
        values in prop::collection::vec(arb_value(), 2..6),
        extra in arb_value(),
    ) {
        // Partition placement must depend only on the key columns.
        let row = Row::new(values.clone());
        let mut extended = values;
        extended.push(extra);
        let wider = Row::new(extended);
        prop_assert_eq!(hash::key_hash(&row, &[0, 1]), hash::key_hash(&wider, &[0, 1]));
    }
}
