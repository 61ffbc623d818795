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
