//! Runs every workload at a small scale for a short time, untraced and
//! traced, and checks the output against `BENCHMARK.json`: every end-to-end
//! metric (untraced) or per-layer metric (traced) is in the result line
//! with its unit, every workload-specific metric is printed with its unit,
//! and no answer was wrong.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A JSON value, as much of it as the benchmark's files use.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

/// The workload-specific metrics each workload prints by name, with the
/// workload they belong to.
const WORKLOAD_METRICS: [(&str, &str, &str); 12] = [
    ("ingest", "ingest_s", "s"),
    ("batch", "neighbors_qps", "1/s"),
    ("batch", "edge_exists_qps", "1/s"),
    ("batch", "split_us", "us"),
    ("serve", "qps", "1/s"),
    ("serve", "p50_us", "us"),
    ("serve", "p99_us", "us"),
    ("serve", "hub_p50_us", "us"),
    ("serve", "low_p99_us", "us"),
    ("ingest", "fail_ratio", "ratio"),
    ("batch", "fail_ratio", "ratio"),
    ("serve", "fail_ratio", "ratio"),
];

fn parse(text: &str) -> Json {
    let b = text.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i);
    ws(b, &mut i);
    assert_eq!(i, b.len(), "trailing input after JSON value");
    v
}

fn ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Json {
    ws(b, i);
    match b[*i] {
        b'{' => {
            *i += 1;
            let mut m = BTreeMap::new();
            loop {
                ws(b, i);
                if b[*i] == b'}' {
                    *i += 1;
                    return Json::Obj(m);
                }
                let Json::Str(k) = value(b, i) else {
                    panic!("object key is not a string")
                };
                ws(b, i);
                assert_eq!(b[*i], b':');
                *i += 1;
                let v = value(b, i);
                assert!(m.insert(k, v).is_none(), "duplicate key");
                ws(b, i);
                if b[*i] == b',' {
                    *i += 1;
                }
            }
        }
        b'[' => {
            *i += 1;
            let mut a = Vec::new();
            loop {
                ws(b, i);
                if b[*i] == b']' {
                    *i += 1;
                    return Json::Arr(a);
                }
                a.push(value(b, i));
                ws(b, i);
                if b[*i] == b',' {
                    *i += 1;
                }
            }
        }
        b'"' => {
            *i += 1;
            let mut s = String::new();
            while b[*i] != b'"' {
                if b[*i] == b'\\' {
                    *i += 1;
                }
                s.push(b[*i] as char);
                *i += 1;
            }
            *i += 1;
            Json::Str(s)
        }
        b't' | b'f' | b'n' => {
            let word = [&b"true"[..], b"false", b"null"]
                .into_iter()
                .find(|w| b[*i..].starts_with(w))
                .expect("literal");
            *i += word.len();
            match word {
                b"true" => Json::Bool(true),
                b"false" => Json::Bool(false),
                _ => Json::Null,
            }
        }
        _ => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                *i += 1;
            }
            let text = std::str::from_utf8(&b[start..*i]).expect("ascii");
            Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// Runs the benchmark binary; returns its standard output.
fn run(workload: &str, trace: u8) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("create run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--scale", "0.02"])
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Checks the result line's metrics against a `BENCHMARK.json` list.
fn check_result(stdout: &str, declared: &[Json], what: &str) {
    let result = parse(stdout.lines().last().expect("output"));
    assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{what}");
    assert_eq!(result.get("failed").num(), 0.0, "{what}");
    assert!(result.get("attempted").num() >= 1.0, "{what}");
    let metrics = result.get("metrics");
    let mut names: Vec<&str> = declared.iter().map(|m| m.get("name").str()).collect();
    names.sort_unstable();
    assert_eq!(metrics.keys(), names, "{what}: metric names");
    for m in declared {
        let got = metrics.get(m.get("name").str());
        assert_eq!(got.get("unit"), m.get("unit"), "{what}: unit of {m:?}");
        assert!(got.get("value").num().is_finite(), "{what}: {m:?}");
    }
}

#[test]
fn every_workload_prints_every_metric_and_answers_correctly() {
    let bench = benchmark_json();
    // `batch` stays runnable although the benchmark does not list it.
    let workloads = ["ingest", "batch", "serve"];
    for w in bench.get("workloads").arr() {
        assert!(workloads.contains(&w.get("name").str()), "{w:?}");
    }
    for workload in workloads {
        let stdout = run(workload, 0);
        check_result(&stdout, bench.get("end_to_end").arr(), workload);
        for m in bench.get("end_to_end").arr() {
            let value = parse(stdout.lines().last().unwrap())
                .get("metrics")
                .get(m.get("name").str())
                .get("value")
                .num();
            assert!(value > 0.0, "{workload}: {m:?} must never be 0");
        }
        for &(w, name, unit) in &WORKLOAD_METRICS {
            if w == workload {
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with(&format!("metric {name} ")))
                    .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
                assert!(line.ends_with(&format!(" {unit}")), "{line}");
            }
        }
        assert!(stdout.contains("\nmetric fail_ratio 0 ratio\n"), "{stdout}");
        assert!(stdout.starts_with("host {\"workload\""), "{stdout}");

        let traced = run(workload, 1);
        check_result(&traced, bench.get("per_layer").arr(), workload);
        assert!(traced.contains("\noverhead "), "{traced}");
        let trace_file = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "smoke-{workload}-1/.perfbench/trace-{workload}-seed11.json"
        ));
        let chrome = parse(&std::fs::read_to_string(trace_file).expect("trace written"));
        assert!(!chrome.get("traceEvents").arr().is_empty());
    }
}
