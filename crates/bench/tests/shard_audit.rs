//! The sharded-fleet audit gate: a traced 2-shard job farm over the
//! partitioned tuple-space fabric must leave no lost wake-up, leaked
//! waiter or post-cancel wake anywhere in the fleet-wide trace once the
//! per-shard rings are merged by Lamport clock.  The farm workload itself
//! asserts conservation: every job consumed once, every ack collected,
//! the space drained.

use sting::prelude::*;
use sting_bench::shapes;

#[test]
fn traced_two_shard_farm_merged_audit_has_no_wake_or_waiter_findings() {
    let fleet = shapes::shard_fleet(2, 4, true);
    let ts = ShardedSpace::new(&fleet);
    shapes::shard_farm_workload(&fleet, &ts, 400, 16);
    let report = fleet.trace_audit();
    fleet.shutdown();
    assert!(report.events > 0, "tracing was off: nothing to audit");
    let bad = shapes::wake_findings(&report);
    assert!(
        bad.is_empty(),
        "merged 2-shard audit found {} wake/waiter violations over {} events:\n{}",
        bad.len(),
        report.events,
        bad.iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
