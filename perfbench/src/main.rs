//! `perfbench <setup|measure> --workload W --seed S [--seconds T]
//! [--trace 0|1] [--trace-out FILE]`
//!
//! `setup` times the cold first unit of a fresh process; `measure` runs
//! the untraced measurement (`--trace 0`) or the traced one (`--trace 1`).
//! Each prints one JSON line. The process re-executes itself with
//! `RAYON_NUM_THREADS` pinned to the workload's thread budget when the
//! environment does not already carry it.

use perfbench::layers::{self, Metrics};
use perfbench::stats::median;
use perfbench::workload::{Sizes, Workload};
use perfbench::{json, peak_rss_mib, pipeline};
use std::os::unix::process::CommandExt;
use std::process::{Command, ExitCode};

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mode = args.first().cloned().ok_or("missing mode")?;
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut trace_out) = (0, 10.0, false, None);
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--trace-out" => trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

/// Run record fields shared by every output line.
fn record(a: &Args, sizes: &Sizes) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("mode", json::string(&a.mode)),
        ("workload", json::string(a.workload.name())),
        ("seed", a.seed.to_string()),
        ("n", sizes.n.to_string()),
        ("nproc", nproc.to_string()),
        ("threads", rayon::current_num_threads().to_string()),
        (
            "simd",
            json::string(tseig_kernels::blas3::simd::selected().name),
        ),
        (
            "tseig_simd",
            std::env::var("TSEIG_SIMD").map_or("null".to_string(), |v| json::string(&v)),
        ),
    ]
}

fn metrics_json(m: &Metrics) -> String {
    let fields: Vec<(&str, String)> = m
        .iter()
        .map(|(k, (v, unit))| {
            (
                k.as_str(),
                json::object(&[("value", json::number(*v)), ("unit", json::string(unit))]),
            )
        })
        .collect();
    json::object(&fields)
}

fn run(a: &Args) -> Result<String, String> {
    let w = a.workload;
    let sizes = Sizes::full(w);
    let mut out = record(a, &sizes);
    match (a.mode.as_str(), a.trace) {
        ("setup", _) => {
            let d = pipeline::setup(w, a.seed, sizes);
            out.push(("cold_s", json::number(d.seconds)));
            out.push(("cold_rss_mib", json::number(peak_rss_mib())));
            out.push(("attempted", d.requests.to_string()));
            out.push(("failed", d.failed.to_string()));
        }
        ("measure", false) => {
            let m = pipeline::measure(w, a.seed, a.seconds, sizes);
            out.push(("cold_s", json::number(m.cold_s)));
            out.push(("samples", m.samples.len().to_string()));
            out.push(("solve_s_p50", json::number(median(&m.samples))));
            let samples: Vec<String> = m.samples.iter().map(|x| json::number(*x)).collect();
            out.push(("samples_s", format!("[{}]", samples.join(", "))));
            out.push(("throughput_rps", json::number(m.throughput())));
            out.push(("cold_rss_mib", json::number(m.cold_rss_mib)));
            out.push(("peak_rss_mib", json::number(peak_rss_mib())));
            out.push(("residual_max", json::number(m.acc.residual)));
            out.push(("orth_max", json::number(m.acc.orth)));
            out.push(("eigval_err_max", json::number(m.acc.eigval)));
            out.push(("accuracy_max", json::number(m.acc.worst())));
            out.push(("attempted", m.attempted.to_string()));
            out.push(("failed", m.failed.to_string()));
        }
        ("measure", true) => {
            let t = layers::traced(w, a.seed, a.seconds, sizes).map_err(|e| e.to_string())?;
            if let Some(path) = &a.trace_out {
                std::fs::write(path, t.tracer.to_json()).map_err(|e| format!("{path}: {e}"))?;
            }
            let mismatches: Vec<String> = t.mismatches.iter().map(|s| json::string(s)).collect();
            out.push(("spans", t.tracer.spans().len().to_string()));
            out.push(("mismatches", format!("[{}]", mismatches.join(", "))));
            out.push(("attempted", t.attempted.to_string()));
            out.push(("failed", t.failed.to_string()));
            out.push(("metrics", metrics_json(&t.metrics)));
        }
        (mode, _) => return Err(format!("unknown mode {mode}")),
    }
    Ok(json::object(&out))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let want = args.workload.threads().to_string();
    if std::env::var("RAYON_NUM_THREADS").ok().as_deref() != Some(want.as_str()) {
        // Pin the thread budget before anything reads it. `exec` replaces
        // this process, so no second process outlives a killed parent.
        let err = match std::env::current_exe() {
            Ok(exe) => Command::new(exe)
                .args(&argv)
                .env("RAYON_NUM_THREADS", &want)
                .exec(),
            Err(e) => e,
        };
        eprintln!("perfbench: re-exec failed: {err}");
        return ExitCode::FAILURE;
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
