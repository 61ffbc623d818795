package main

import (
	"testing"

	"qtenon/internal/host"
)

func TestParseSystem(t *testing.T) {
	for _, tc := range []struct {
		name             string
		qtenon, baseline bool
	}{
		{"qtenon", true, false},
		{"Qtenon", true, false},
		{"baseline", false, true},
		{"BASELINE", false, true},
		{"both", true, true},
		{"Both", true, true},
	} {
		q, b, err := parseSystem(tc.name)
		if err != nil || q != tc.qtenon || b != tc.baseline {
			t.Errorf("parseSystem(%q) = %v, %v, %v; want %v, %v, nil", tc.name, q, b, err, tc.qtenon, tc.baseline)
		}
	}
	for _, bad := range []string{"qtnon", "", "all"} {
		if _, _, err := parseSystem(bad); err == nil {
			t.Errorf("parseSystem(%q) accepted", bad)
		}
	}
}

func TestParseCore(t *testing.T) {
	for _, tc := range []struct {
		name string
		want host.Core
	}{
		{"rocket", host.Rocket()},
		{"Rocket", host.Rocket()},
		{"boom", host.BoomL()},
		{"BOOM", host.BoomL()},
	} {
		got, err := parseCore(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("parseCore(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, bad := range []string{"rockt", "", "boom-l"} {
		if _, err := parseCore(bad); err == nil {
			t.Errorf("parseCore(%q) accepted", bad)
		}
	}
}

func TestParseCoupling(t *testing.T) {
	for _, tc := range []struct {
		name   string
		qubits int
		want   int // physical qubits; 0 for all-to-all (nil map)
	}{
		{"all", 5, 0},
		{"ALL", 8, 0},
		{"line", 5, 5},
		{"Line", 8, 8},
		{"grid", 5, 6},
		{"GRID", 9, 9},
	} {
		got, err := parseCoupling(tc.name, tc.qubits)
		if err != nil {
			t.Errorf("parseCoupling(%q, %d): %v", tc.name, tc.qubits, err)
			continue
		}
		n := 0
		if got != nil {
			n = got.NQubits()
		}
		if n != tc.want {
			t.Errorf("parseCoupling(%q, %d) has %d physical qubits, want %d", tc.name, tc.qubits, n, tc.want)
		}
	}
	for _, bad := range []string{"bogus", "", "ring"} {
		if _, err := parseCoupling(bad, 5); err == nil {
			t.Errorf("parseCoupling(%q) accepted", bad)
		}
	}
}
