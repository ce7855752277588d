package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sereth/internal/scenarios"
)

// TestExperimentGoldens pins the registry-driven CLI to the stdout the
// per-family sweep/printer pairs produced before they were folded into
// internal/scenarios: testdata/<name>.golden is `serethsim -experiment
// <name> -quick -runs 2` captured at that commit, and every experiment
// of the registry must reproduce its file byte for byte.
func TestExperimentGoldens(t *testing.T) {
	for _, e := range scenarios.Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", e.Name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run([]string{"-experiment", e.Name, "-quick", "-runs", "2"}, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output drifted from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s", e.Name, got.Bytes(), want)
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "bogus"}, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
