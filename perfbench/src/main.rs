//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, one line each, then the
//! trace hash of every point, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a
//! correctness check fails and 2 on a usage error. A traced run also
//! writes its spans to `perfbench/out/<workload>-seed<n>.trace.json`.

use std::process::ExitCode;

use perfbench::{result_json, run, RunConfig, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <fig10-qd1|share31-qd4|share8-cqe-drop> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(val) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {val}")),
            },
            "--seed" => match val.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {val}")),
            },
            "--seconds" => match val.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = s,
                _ => return usage(&format!("bad seconds {val}")),
            },
            "--trace" => match val.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("--trace takes 0 or 1, not {val}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::bench(),
    };
    // A panic inside the simulation is caught and reported as that
    // point's failures; one line on stderr says where it happened.
    std::panic::set_hook(Box::new(|info| {
        let at = info
            .location()
            .map_or(String::new(), |l| format!(" at {}:{}", l.file(), l.line()));
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        eprintln!("perfbench: simulation panicked{at}: {msg}");
    }));
    let out = run(&cfg);

    println!(
        "workload {} seed {seed} rounds {}",
        workload.name(),
        out.rounds
    );
    for n in &out.notes {
        println!("  {n}");
    }
    for m in &out.metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for (label, hash) in &out.trace_hashes {
        println!("  simcore.trace_hash {label} {hash:#018x}");
    }
    for f in &out.check_failures {
        println!("  CHECK FAILED: {f}");
    }
    if let Some(json) = &out.trace_json {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}-seed{seed}.trace.json", workload.name());
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("  trace written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    println!("{}", result_json(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
