// Fixture: near-miss negatives for counter-discipline. Every metric
// name has a second mention — a literal matching a format! pattern, a
// waived one-off, and a plain string that is not a metric at all.
pub fn register(registry: &Registry, kind: &str) {
    registry.counter(&format!("fix.ops.{kind}"));
    registry.counter("fix.ops.read");
    // check: metric-ok fixture demonstrates the waiver comment
    registry.gauge("fix.lonely_gauge");
    open("not_a_metric.bin");
}
