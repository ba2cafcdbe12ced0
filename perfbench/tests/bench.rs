//! Bench-local checks: names, determinism, and a tiny run of every
//! workload through the same code paths the benchmark measures.

use perfbench::layers;
use perfbench::pipeline;
use perfbench::workload::{Sizes, Workload};

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// `(section, name, unit)` of every entry of `BENCHMARK.json`, which
/// holds one object per line.
fn declared() -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let field = |line: &str, key: &str| -> String {
        let pat = format!("\"{key}\": \"");
        line.find(&pat)
            .map(|i| {
                let rest = &line[i + pat.len()..];
                rest[..rest.find('"').expect("closed string")].to_string()
            })
            .unwrap_or_default()
    };
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["workloads", "end_to_end", "per_layer"] {
            if line.trim_start().starts_with(&format!("\"{s}\"")) {
                section = s.to_string();
            }
        }
        if line.contains("\"name\"") {
            out.push((section.clone(), field(line, "name"), field(line, "unit")));
        }
    }
    out
}

#[test]
fn names_are_valid_and_match_the_declaration() {
    let decl = declared();
    for (_, name, _) in &decl {
        assert!(valid_name(name), "{name}");
    }
    let workloads: Vec<&str> = decl
        .iter()
        .filter(|d| d.0 == "workloads")
        .map(|d| d.1.as_str())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    // Every per-layer metric a traced run emits is declared with the
    // same unit, and every declared one is emitted.
    let t = layers::traced(Workload::BatchMixed, 1, 0.0, Sizes::tiny()).unwrap();
    let per_layer: Vec<(String, String)> = decl
        .iter()
        .filter(|d| d.0 == "per_layer")
        .map(|d| (d.1.clone(), d.2.clone()))
        .collect();
    let emitted: Vec<(String, String)> = t
        .metrics
        .iter()
        .map(|(k, (_, u))| (k.to_string(), u.to_string()))
        .collect();
    let mut want = per_layer.clone();
    want.sort();
    assert_eq!(emitted, want);
    assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
}

#[test]
fn same_seed_same_accuracy() {
    for w in Workload::ALL {
        let sizes = Sizes::tiny();
        let a = pipeline::measure(w, 5, 0.0, sizes);
        let b = pipeline::measure(w, 5, 0.0, sizes);
        assert_eq!(a.acc, b.acc, "{}", w.name());
        assert!(a.acc.worst() > 0.0, "{}", w.name());
        let c = pipeline::measure(w, 6, 0.0, sizes);
        assert_ne!(a.acc, c.acc, "{}", w.name());
    }
}

#[test]
fn tiny_runs_pass_their_checks() {
    for w in Workload::ALL {
        let sizes = Sizes::tiny();
        let m = pipeline::measure(w, 3, 0.0, sizes);
        assert!(m.attempted > 0 && m.failed == 0, "{}: {m:?}", w.name());
        assert!(m.cold_s > 0.0 && m.throughput() > 0.0, "{}", w.name());
        let s = pipeline::setup(w, 3, sizes);
        assert!(s.requests > 0 && s.failed == 0, "{}", w.name());
        let t = layers::traced(w, 3, 0.0, sizes).unwrap();
        assert!(t.attempted > 0 && t.failed == 0, "{}", w.name());
        for (name, (v, _)) in &t.metrics {
            assert!(v.is_finite() && *v > 0.0, "{}: {name} = {v}", w.name());
        }
    }
}
