//! Hot-path audit: wall time, simulator work *and* allocations per
//! simulated delivery for the fabric's two flagship workloads, plus a CI
//! assertion mode.
//!
//! ```text
//! cargo run --release -p ringnet-bench --bin hotpath            # report
//! cargo run --release -p ringnet-bench --bin hotpath -- check   # CI gate
//! ```
//!
//! `check` asserts that events, timers, wire packets and allocator calls
//! per delivery stay within the pinned ceilings of
//! [`ringnet_bench::suites::WORK_CEILINGS`], so a regression in simulator
//! work or a new allocation on the sim path fails the build even when wall
//! time is too noisy to trip anything. All four counts are deterministic:
//! they read the same on every machine.

use ringnet_bench::alloc::CountingAlloc;
use ringnet_bench::suites::{hotpath_scenarios, WORK_CEILINGS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let check = std::env::args().any(|a| a == "check");
    let rows = hotpath_scenarios();
    println!(
        "{:<38} {:>9} {:>9} {:>10} {:>10} {:>10} {:>12} {:>14}",
        "scenario",
        "wall_ms",
        "delivered",
        "events/d",
        "timers/d",
        "packets/d",
        "allocs/d",
        "alloc_kb/d"
    );
    let mut failures = Vec::new();
    for row in &rows {
        println!(
            "{:<38} {:>9.2} {:>9} {:>10.4} {:>10.4} {:>10.4} {:>12.3} {:>14.3}",
            row.name,
            row.wall_ms,
            row.delivered,
            row.events_per_delivery,
            row.timers_per_delivery,
            row.wire_packets_per_delivery,
            row.allocs_per_delivery,
            row.alloc_bytes_per_delivery / 1024.0
        );
        if check {
            failures.extend(row.ceiling_breaches());
        }
    }
    if check {
        for c in WORK_CEILINGS {
            if !rows.iter().any(|r| r.name == c.name) {
                failures.push(format!("pinned scenario {} was not measured", c.name));
            }
        }
        if !failures.is_empty() {
            eprintln!("hot-path work audit FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!("hot-path work audit clean ({} scenarios)", rows.len());
    }
}
