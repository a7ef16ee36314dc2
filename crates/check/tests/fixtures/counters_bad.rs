// Fixture: true positive for counter-discipline. `orphan.metric` is
// registered exactly once with nothing consuming it.
pub fn register(registry: &Registry) {
    registry.counter("orphan.metric");
}
