package perf

import "testing"

// BenchmarkHotPaths exposes the perfbench suite under `go test -bench`,
// one sub-benchmark per baseline metric:
//
//	go test ./internal/perf -bench 'HotPaths/dialogue_iteration' -benchmem
func BenchmarkHotPaths(b *testing.B) {
	for _, nb := range HotPathBenchmarks() {
		b.Run(nb.Name, nb.bench)
	}
}
