package faultnet

// The external test package (transcode_test.go) needs the shared
// fixtures: it imports internal/byz, which imports this package.
var Cluster = cluster

const TestClient = testClient
