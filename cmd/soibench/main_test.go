package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soifft/internal/bench"
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

const (
	blockOpen  = "<!-- soibench:"
	blockClose = "<!-- /soibench -->"
)

// TestExperimentsFresh holds EXPERIMENTS.md to soibench's output: each
// untimed experiment has exactly one block between
// "<!-- soibench:NAME -->" and "<!-- /soibench -->" lines, and the
// block is byte for byte what `soibench -experiment NAME` prints with
// the default flags. A failure prints the fresh block to paste in.
func TestExperimentsFresh(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]string{}
	for rest := string(doc); ; {
		_, after, ok := strings.Cut(rest, "\n"+blockOpen)
		if !ok {
			break
		}
		name, body, ok := strings.Cut(after, " -->\n")
		if !ok {
			t.Fatalf("unterminated marker %q", blockOpen+name)
		}
		body, rest, ok = strings.Cut(body, blockClose)
		if !ok {
			t.Fatalf("block %q has no %q", name, blockClose)
		}
		if _, dup := blocks[name]; dup {
			t.Errorf("EXPERIMENTS.md has two blocks for %q", name)
		}
		blocks[name] = body
	}
	for _, e := range experiments {
		body, ok := blocks[e.name]
		delete(blocks, e.name)
		if e.timed {
			if ok {
				t.Errorf("%s prints wall times, so EXPERIMENTS.md must not check in its output", e.name)
			}
			continue
		}
		var fresh bytes.Buffer
		o := &options{cfg: bench.DefaultConfig(), measureN: defaultMeasurePoints, out: &fresh}
		if err := e.run(o); err != nil {
			t.Errorf("%s: %v", e.name, err)
			continue
		}
		if body != fresh.String() {
			t.Errorf("EXPERIMENTS.md's %s block is missing or stale; soibench prints:\n%s%s -->\n%s%s",
				e.name, blockOpen, e.name, fresh.String(), blockClose)
		}
	}
	for name := range blocks {
		t.Errorf("EXPERIMENTS.md has a block for %q, which is no experiment", name)
	}
}
