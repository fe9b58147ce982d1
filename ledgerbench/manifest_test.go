package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root is the catalog's rendering; after
// changing the catalog, regenerate it from the root with
// `go -C ledgerbench run . --manifest > BENCHMARK.json`.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the catalog; regenerate it with --manifest")
	}
}

func TestReadmeNamesEveryMetric(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(string(readme), "`"+d.Name+"`") {
			t.Errorf("README.md does not describe %s", d.Name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(string(readme), "`"+w.name+"`") {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
}
