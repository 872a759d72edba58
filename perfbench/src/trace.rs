//! Chrome trace-event JSON (opens in Perfetto) for one traced round.
//!
//! One process per point. Bio spans sit on one thread per client; the
//! phases (build / job = ramp + measure / verify) sit on thread 0 of the
//! point, and the counters at each phase boundary are counter events.
//! Timestamps are simulated µs; bios and phases carry their host time in
//! `args` (ramp and measure are told apart in simulated time only).

use std::fmt::Write;

use crate::point::PointRun;

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

pub fn chrome_json(round: &[PointRun]) -> String {
    let mut ev: Vec<String> = Vec::new();
    for (pid, p) in round.iter().enumerate() {
        ev.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(&p.label)
        ));
        let phase = |name: &str, (s, e): (u64, u64), host_ns: Option<u64>| {
            let host = host_ns.map_or(String::new(), |h| format!(",\"host_ns\":{h}"));
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"dur\":{},\"args\":{{\"sim_ns\":{}{host}}}}}",
                s as f64 / 1e3,
                (e - s) as f64 / 1e3,
                e - s
            )
        };
        let host_of = |ph: &str| {
            p.boundaries
                .iter()
                .find(|b| b.phase == ph)
                .map(|b| b.host_ns)
        };
        ev.push(phase("build", (0, p.ramp_ns.0), host_of("build")));
        ev.push(phase("job", (p.ramp_ns.0, p.measure_ns.1), host_of("job")));
        ev.push(phase("ramp", p.ramp_ns, None));
        ev.push(phase("measure", p.measure_ns, None));
        if let Some(v) = p.boundaries.iter().find(|b| b.phase == "verify") {
            let end = v.counters.get("simcore.now_ns");
            let job_end = p
                .boundaries
                .iter()
                .find(|b| b.phase == "job")
                .map_or(end, |b| b.counters.get("simcore.now_ns"));
            ev.push(phase("verify", (job_end, end), Some(v.host_ns)));
        }
        for b in &p.boundaries {
            let mut args = String::new();
            for (k, v) in b.counters.iter() {
                if !args.is_empty() {
                    args.push(',');
                }
                let _ = write!(args, "\"{k}\":{v}");
            }
            ev.push(format!(
                "{{\"name\":\"counters@{}\",\"ph\":\"C\",\"pid\":{pid},\"ts\":{},\"args\":{{{args}}}}}",
                b.phase,
                b.counters.get("simcore.now_ns") as f64 / 1e3
            ));
        }
        for s in &p.spans {
            ev.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"bio\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"host_ns\":{},\"ok\":{}}}}}",
                if s.write { "write" } else { "read" },
                s.client + 1,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.host_ns,
                s.ok
            ));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", ev.join(",\n"))
}
