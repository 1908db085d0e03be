package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFigures drives the bench binary's dispatch through its cheap,
// assertion-bearing figures (the conformance matrix errs on divergence,
// the frontier errs unless adaptive dominates, coverflow writes the CI
// artifact). Output goes to the real stdout, which the test temporarily
// points at a scratch file.
func TestRunFigures(t *testing.T) {
	dir := t.TempDir()
	outFile, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = outFile
	defer func() { os.Stdout = old; outFile.Close() }()

	scale, rank := 1, 1
	verbose := false
	jsonPath := filepath.Join(dir, "flowcov.json")
	empty := ""

	for _, fig := range []string{"conform", "frontier"} {
		fig := fig
		if err := run(&fig, &scale, &rank, &empty, &verbose); err != nil {
			t.Fatalf("run -fig %s: %v", fig, err)
		}
	}
	fig := "coverflow"
	if err := run(&fig, &scale, &rank, &jsonPath, &verbose); err != nil {
		t.Fatalf("run -fig coverflow: %v", err)
	}
	if _, err := os.Stat(jsonPath); err != nil {
		t.Fatalf("coverflow did not write its JSON artifact: %v", err)
	}

	outFile.Sync()
	data, err := os.ReadFile(outFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"zero divergences",
		"adaptive dominates always-mpfr",
		"covered",
		"wrote " + jsonPath,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("bench output is missing %q", want)
		}
	}
}
