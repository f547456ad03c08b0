package serve

// Ingest is ingest without the queue depth: the tests' way to feed
// events without the HTTP layer.
func (d *Daemon) Ingest(events []Event) (accepted, shed int) {
	accepted, shed, _ = d.ingest(events)
	return accepted, shed
}
