package netflow

// TestRecord is testRecord for netflow_test, the external test package
// that drives the exporter into the ingest pipeline (which imports this
// package).
var TestRecord = testRecord
