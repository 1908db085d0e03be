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

// TestRunRejectsUnknownFigure: a -fig name no figure answers to (the
// coverflow artifact's own name, a typo, an empty name) is an error that
// lists every valid name, and nothing is printed.
func TestRunRejectsUnknownFigure(t *testing.T) {
	outFile, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = outFile
	defer func() { os.Stdout = old; outFile.Close() }()

	scale, rank := 1, 1
	verbose := false
	empty := ""
	for _, fig := range []string{"flowcov", "confrom", ""} {
		err := run(&fig, &scale, &rank, &empty, &verbose)
		if err == nil {
			t.Fatalf("run -fig %q: no error", fig)
		}
		for _, name := range append([]string{"all"}, figureNames...) {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("run -fig %q: error %q does not list %q", fig, err, name)
			}
		}
	}
	st, err := outFile.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Errorf("unknown figures printed %d bytes", st.Size())
	}
}
