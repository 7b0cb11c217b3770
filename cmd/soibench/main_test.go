package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true} // "all" is the flag's wildcard
	for _, e := range experiments {
		if seen[e.name] {
			t.Errorf("experiment name %q is taken", e.name)
		}
		seen[e.name] = true
	}
}

func TestRunExperiment(t *testing.T) {
	var out bytes.Buffer
	o := &options{out: &out}
	if err := runExperiment("table1", o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fat tree") {
		t.Errorf("table1 printed no system table:\n%s", out.String())
	}
	out.Reset()
	err := runExperiment("fig0", o)
	if !errors.Is(err, errUnknownExperiment) {
		t.Errorf("unknown name: err %v, want errUnknownExperiment", err)
	}
	if out.Len() != 0 {
		t.Errorf("unknown name printed %q", out.String())
	}
}
