//! `timr-bench`: the repository benchmark.
//!
//! With `--workload <name>` it runs one workload in this process and
//! prints, as the last line of standard output, the result object the
//! contract in `BENCHMARK.json` describes: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Without
//! `--workload` it runs every workload that way, each in a child process
//! of its own so that peak memory belongs to the workload, and prints the
//! tables. See `README.md` beside this crate.

mod spec;
mod stats;
mod trace;
mod workloads;

use serde_json::Value;
use stats::{median, percentile, Summary};
use std::time::{Duration, Instant};
use workloads::{out_dir, Env, Pass, Rep, Res, Workload, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed repetitions per run, however long they take.
const MIN_REPS: usize = 5;
/// Users in the generated log (`--users` overrides): one `bt_timr`
/// repetition takes about a third of a second and the slowest workload's
/// about one, so every run fits a dozen repetitions or more.
const DEFAULT_USERS: usize = 1000;
/// Seconds one run measures unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 12.0;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    users: usize,
    /// Exactly this many repetitions, whatever `seconds` says.
    reps: Option<usize>,
    repeat_check: bool,
}

fn parse_args() -> Res<Opts> {
    let mut o = Opts {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: true,
        users: DEFAULT_USERS,
        reps: None,
        repeat_check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse()?,
            "--seconds" => o.seconds = value()?.parse()?,
            "--trace" => o.trace = value()?.parse::<u8>()? != 0,
            "--no-trace" => o.trace = false,
            "--users" => o.users = value()?.parse()?,
            "--reps" => o.reps = Some(value()?.parse()?),
            "--repeat-check" => o.repeat_check = true,
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }
    if o.users == 0 || o.reps == Some(0) || !o.seconds.is_finite() || o.seconds <= 0.0 {
        return Err("--users, --reps and --seconds must be positive".into());
    }
    Ok(o)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn metric(value: f64, unit: &str) -> Value {
    obj(vec![
        ("value", Value::Float(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

/// The checked-out revision, read from `.git` (the driver's checkout has
/// none).
fn git_revision() -> String {
    let read = |p: String| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD".into()).unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(format!(".git/{r}")).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown".into(),
        r => r.into(),
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .ok_or("no VmHWM in /proc/self/status")?
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}

/// A built workload, warm.
struct Ready {
    workload: Box<dyn Workload>,
    warm: Rep,
    setup_s: f64,
    gen_s: f64,
    log_events: usize,
}

/// Generate the log, load it, build the prerequisite datasets, and run
/// one untimed warm-up repetition, whose output every later one must
/// repeat.
fn set_up(o: &Opts, name: &str) -> Res<Ready> {
    let start = Instant::now();
    let env = Env::build(o.seed, o.users);
    let mut workload = workloads::build(name, &env)?;
    let warm = workload.rep()?;
    if let Some(fault) = &warm.fault {
        return Err(format!("{name}: warm-up failed: {fault}").into());
    }
    Ok(Ready {
        workload,
        warm,
        setup_s: start.elapsed().as_secs_f64(),
        gen_s: env.gen_s,
        log_events: env.log.events.len(),
    })
}

/// Operations attempted and failed, and what the good ones measured.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    walls: Vec<f64>,
    punct_ms: Vec<f64>,
}

impl Tally {
    /// One op per repetition: it fails if it errors, if its own check
    /// fails, or if it does not publish what the warm-up did.
    fn record(&mut self, what: &str, rep: Res<Rep>, warm: &Rep) -> Option<f64> {
        self.attempted += 1;
        let fault = match rep {
            Err(e) => e.to_string(),
            Ok(Rep { fault: Some(f), .. }) => f,
            Ok(r) if r.digest != warm.digest => "output differs from the warm-up's".into(),
            Ok(r) => {
                self.punct_ms.extend(r.punct_ms);
                return Some(r.wall_s);
            }
        };
        self.failed += 1;
        eprintln!("{what}: FAILED: {fault}");
        None
    }
}

/// Whether a run that has made `done` repetitions since `start` is over.
fn finished(o: &Opts, done: usize, start: Instant) -> bool {
    match o.reps {
        Some(reps) => done >= reps,
        None => done >= MIN_REPS && start.elapsed() >= Duration::from_secs_f64(o.seconds),
    }
}

fn print_result(name: &str, tally: &Tally, metrics: Vec<(String, Value)>) {
    println!(
        "{name}: ops_attempted {} ops_failed {}",
        tally.attempted, tally.failed
    );
    let result = obj(vec![
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", Value::UInt(tally.attempted)),
        ("failed", Value::UInt(tally.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("serializable"));
}

/// Tracing off: the end-to-end metrics.
fn run_untraced(o: &Opts, name: &str) -> Res<()> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let r = set_up(o, name)?;
        setups.push(r.setup_s);
        ready = Some(r);
    }
    let mut ready = ready.expect("SETUPS > 0");

    let mut tally = Tally::default();
    let start = Instant::now();
    while !finished(o, tally.attempted as usize, start) {
        let rep = ready.workload.rep();
        if let Some(wall) = tally.record(name, rep, &ready.warm) {
            tally.walls.push(wall);
        }
    }
    if tally.walls.is_empty() {
        return Err(format!("{name}: every repetition failed").into());
    }

    let (setup, wall) = (Summary::of(&setups), Summary::of(&tally.walls));
    let events = ready.workload.input_events();
    let detail = obj(vec![
        ("workload", Value::Str(name.into())),
        ("seed", Value::UInt(o.seed)),
        ("git", Value::Str(git_revision())),
        ("cores", Value::UInt(cores() as u64)),
        ("users", Value::UInt(o.users as u64)),
        ("log_events", Value::UInt(ready.log_events as u64)),
        ("input_events", Value::UInt(events as u64)),
        ("events_per_s", Value::Float(events as f64 / wall.median)),
        ("peak_rss_mb", Value::Float(peak_rss_mb()?)),
        ("setup_s", setup.to_json()),
        ("job_wall_s", wall.to_json()),
    ]);
    println!(
        "{name}: job_wall_s median {:.4} s [q1 {:.4}, q3 {:.4}, min {:.4}, max {:.4}] over {} reps, \
         {events} input events ({:.0} events/s); setup_s median {:.4} s of {}",
        wall.median, wall.q1, wall.q3, wall.min, wall.max, wall.n,
        events as f64 / wall.median, setup.median, setup.n
    );
    println!("{}", serde_json::to_string(&detail)?);
    let values = [wall.median, setup.median];
    let metrics = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|((n, unit), v)| (n.to_string(), metric(v, unit)))
        .collect();
    print_result(name, &tally, metrics);
    Ok(())
}

/// Tracing on: untraced repetitions alternate with traced passes; the
/// per-layer metrics are medians over the passes.
fn run_traced(o: &Opts, name: &str) -> Res<()> {
    let mut ready = set_up(o, name)?;
    let mut tally = Tally::default();
    let mut traced_walls = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    // Peak memory of set-up and the warm-up repetition: read before the
    // first traced pass, whose replays hold decoded copies of the datasets.
    let rss_mb = peak_rss_mb()?;
    let start = Instant::now();
    // One round is an untraced repetition and a traced pass: two ops.
    while !finished(o, tally.attempted as usize / 2, start) {
        let rep = ready.workload.rep();
        if let Some(wall) = tally.record(name, rep, &ready.warm) {
            tally.walls.push(wall);
        }
        let mut pass = Pass::new(start);
        let rep = ready.workload.traced(&mut pass);
        if let Some(wall) = tally.record(&format!("{name} (traced)"), rep, &ready.warm) {
            traced_walls.push(wall);
            pass.add_layer_totals();
            passes.push(pass);
        }
    }
    if passes.is_empty() || tally.walls.is_empty() {
        return Err(format!("{name}: no traced pass succeeded").into());
    }

    tally.punct_ms.sort_by(f64::total_cmp);
    let mut metrics = Vec::new();
    println!(
        "{name}: per-layer metrics, medians over {} traced passes",
        passes.len()
    );
    for (metric_name, unit) in spec::PER_LAYER {
        let value = match metric_name {
            "peak_rss_mb" => rss_mb,
            "adgen.gen_s" => ready.gen_s,
            "adgen.events" => ready.log_events as f64,
            "trace_overhead" => median(&traced_walls) / median(&tally.walls),
            "punct_p50_ms" => percentile(&tally.punct_ms, 50.0),
            "punct_p95_ms" => percentile(&tally.punct_ms, 95.0),
            "punct_samples" => tally.punct_ms.len() as f64,
            _ => {
                let per_pass: Vec<f64> = passes
                    .iter()
                    .map(|p| p.metrics.get(metric_name).copied().unwrap_or(0.0))
                    .collect();
                median(&per_pass)
            }
        };
        println!("  {metric_name:<34} {value:>16.4} {unit}");
        metrics.push((metric_name.to_string(), metric(value, unit)));
    }
    if let Some(stray) = passes
        .iter()
        .flat_map(|p| p.metrics.keys())
        .find(|k| !spec::PER_LAYER.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("{name}: undeclared per-layer metric `{stray}`").into());
    }

    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(format!("trace_{name}.json"));
    let tracers: Vec<_> = passes.into_iter().map(|p| p.tracer).collect();
    std::fs::write(
        &path,
        serde_json::to_string(&trace::chrome_trace(name, &tracers))?,
    )?;
    println!("{name}: Chrome trace written to {}", path.display());
    print_result(name, &tally, metrics);
    Ok(())
}

// ---------------------------------------------------------------------
// Every workload, each in a child process
// ---------------------------------------------------------------------

/// Run one workload in a child process; its result object and the lines
/// it printed before it.
fn child(o: &Opts, name: &str, trace: bool) -> Res<(Value, Vec<String>)> {
    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.args(["--workload", name, "--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--users", &o.users.to_string()]);
    if let Some(reps) = o.reps {
        cmd.args(["--reps", &reps.to_string()]);
    }
    let out = cmd.stderr(std::process::Stdio::inherit()).output()?;
    if !out.status.success() {
        return Err(format!("{name}: child exited with {}", out.status).into());
    }
    let text = String::from_utf8(out.stdout)?;
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    Ok((serde_json::parse(&last)?, lines))
}

fn metric_value(result: &Value, name: &str) -> Res<f64> {
    match result.field("metrics")?.field(name)?.field("value")? {
        Value::Float(v) => Ok(*v),
        other => Err(format!("metric `{name}` is not a number: {other:?}").into()),
    }
}

fn correct(result: &Value) -> Res<bool> {
    Ok(result.field("correct")? == &Value::Bool(true))
}

/// One set: every workload with tracing off. Prints as it goes; clears
/// `ok` if any operation failed.
fn run_set(o: &Opts, ok: &mut bool) -> Res<Vec<(String, Value)>> {
    let mut set = Vec::new();
    for name in WORKLOADS {
        let (result, lines) = child(o, name, false)?;
        *ok &= correct(&result)?;
        // The detail object is for the result file; show the prose.
        for line in lines.iter().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
        for (metric_name, unit) in spec::END_TO_END {
            println!(
                "  {metric_name:<34} {:>16.4} {unit}",
                metric_value(&result, metric_name)?
            );
        }
        let detail = lines
            .iter()
            .rev()
            .find(|l| l.starts_with('{'))
            .map_or(Ok(Value::Null), |l| serde_json::parse(l))?;
        set.push((
            name.to_string(),
            obj(vec![("result", result), ("detail", detail)]),
        ));
    }
    Ok(set)
}

/// Two sets of the same code: each end-to-end metric's relative change
/// against its bound in `BENCHMARK.json`. True if all are within.
fn repeat_check(first: &[(String, Value)], second: &[(String, Value)]) -> Res<bool> {
    let decl = serde_json::parse(&std::fs::read_to_string("BENCHMARK.json")?)?;
    let Value::Array(metrics) = decl.field("end_to_end")? else {
        return Err("BENCHMARK.json: end_to_end is not a list".into());
    };
    let mut within = true;
    println!("repeat check: second set against first, relative change (worse is positive)");
    for ((name, a), (_, b)) in first.iter().zip(second) {
        for m in metrics {
            let (Value::Str(metric_name), Value::Str(better), Value::Float(bound)) =
                (m.field("name")?, m.field("better")?, m.field("bound")?)
            else {
                return Err("BENCHMARK.json: malformed end_to_end entry".into());
            };
            let x = metric_value(a.field("result")?, metric_name)?;
            let y = metric_value(b.field("result")?, metric_name)?;
            let worse = if better == "lower" {
                (y - x) / x
            } else {
                (x - y) / x
            };
            let ok = worse <= *bound;
            within &= ok;
            println!(
                "  {name:<14} {metric_name:<12} {x:>12.4} -> {y:>12.4}  {:>+7.2}%  bound {:.0}%  {}",
                worse * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "BEYOND BOUND" }
            );
        }
    }
    Ok(within)
}

fn run_all(o: &Opts) -> Res<bool> {
    let git = git_revision();
    println!(
        "timr-bench: seed {} users {} cores {} git {git} — {} s per run",
        o.seed,
        o.users,
        cores(),
        o.seconds
    );
    let mut ok = true;
    let first = run_set(o, &mut ok)?;
    let wall = |set: &[(String, Value)], name: &str| -> Res<f64> {
        let entry = &set.iter().find(|(n, _)| n == name).expect("ran").1;
        metric_value(entry.field("result")?, "job_wall_s")
    };
    let (timr, custom) = (wall(&first, "bt_timr")?, wall(&first, "bt_custom")?);
    println!(
        "fig14_ratio {:.3} x = bt_timr.job_wall_s {timr:.4} s / bt_custom.job_wall_s {custom:.4} s \
         (paper: 4.07 h / 3.73 h = 1.09 x)",
        timr / custom
    );
    let mut report = vec![
        ("seed", Value::UInt(o.seed)),
        ("git", Value::Str(git)),
        ("cores", Value::UInt(cores() as u64)),
        ("users", Value::UInt(o.users as u64)),
        ("fig14_ratio", Value::Float(timr / custom)),
        ("untraced", Value::Object(first.clone())),
    ];

    if o.repeat_check {
        let second = run_set(o, &mut ok)?;
        ok &= repeat_check(&first, &second)?;
        report.push(("untraced_second_set", Value::Object(second)));
    } else if o.trace {
        let mut traced = Vec::new();
        for name in WORKLOADS {
            let (result, lines) = child(o, name, true)?;
            for line in lines {
                println!("{line}");
            }
            ok &= correct(&result)?;
            traced.push((name.to_string(), result));
        }
        report.push(("traced", Value::Object(traced)));
    }

    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join("result.json");
    std::fs::write(&path, serde_json::to_string_pretty(&obj(report))?)?;
    println!("result written to {}", path.display());
    Ok(ok)
}

fn main() {
    let outcome = parse_args().and_then(|o| match &o.workload {
        Some(name) if o.trace => run_traced(&o, name).map(|()| true),
        Some(name) => run_untraced(&o, name).map(|()| true),
        None => run_all(&o),
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("timr-bench: a check failed");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("timr-bench: {e}");
            std::process::exit(2);
        }
    }
}
