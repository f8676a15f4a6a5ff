package main

import (
	"math"
	"strings"
	"testing"
)

const sampleProfile = `mode: set
repro/internal/wire/wire.go:10.2,12.3 3 1
repro/internal/wire/wire.go:14.2,20.3 5 0
repro/internal/wire/faults.go:8.2,9.3 2 1
repro/internal/rados/osd.go:30.2,40.3 10 1
`

func TestParseProfile(t *testing.T) {
	cov, err := Parse(strings.NewReader(sampleProfile))
	if err != nil {
		t.Fatal(err)
	}
	wire := cov["repro/internal/wire"]
	if wire.total != 10 || wire.covered != 5 {
		t.Fatalf("wire = %+v, want 5/10", wire)
	}
	if math.Abs(wire.percent()-50) > 1e-9 {
		t.Fatalf("wire percent = %f, want 50", wire.percent())
	}
	rados := cov["repro/internal/rados"]
	if rados.total != 10 || rados.covered != 10 {
		t.Fatalf("rados = %+v, want 10/10", rados)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(strings.NewReader("not a profile line\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Parse(strings.NewReader("a.go:1.1,2.2 three 1\n")); err == nil {
		t.Fatal("non-numeric statement count accepted")
	}
}

func TestCheckFloors(t *testing.T) {
	cov := map[string]pkgCov{
		"repro/internal/wire":  {total: 100, covered: 90},
		"repro/internal/rados": {total: 100, covered: 40},
	}
	fl := map[string]float64{
		"repro/internal/wire":  85,
		"repro/internal/rados": 70,
	}
	lines, err := Check(cov, fl)
	if err == nil || !strings.Contains(err.Error(), "repro/internal/rados") {
		t.Fatalf("err = %v, want rados floor failure", err)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %q, want one per floored package", lines)
	}

	cov["repro/internal/rados"] = pkgCov{total: 100, covered: 75}
	if _, err := Check(cov, fl); err != nil {
		t.Fatalf("passing coverage failed the gate: %v", err)
	}
}

func TestCheckMissingPackage(t *testing.T) {
	lines, err := Check(map[string]pkgCov{}, map[string]float64{"repro/internal/wire": 85})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want missing-package failure", err)
	}
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "FAIL") {
		t.Fatalf("lines = %q", lines)
	}
}

// TestRealFloorsSubsetOfCore ensures the committed floors keep naming
// the tier-1 core packages (a rename would silently drop the gate).
func TestRealFloorsSubsetOfCore(t *testing.T) {
	for _, pkg := range []string{
		"repro/internal/wire", "repro/internal/rados", "repro/internal/paxos",
		"repro/internal/mon", "repro/internal/mds", "repro/internal/zlog",
		"repro/internal/script", "repro/internal/core",
	} {
		if _, ok := floors[pkg]; !ok {
			t.Fatalf("floors is missing core package %s", pkg)
		}
	}
}
