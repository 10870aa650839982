package main

import (
	"strings"
	"testing"

	"repro/guanyu"
)

func TestParsePeers(t *testing.T) {
	m, err := parsePeers("ps0=127.0.0.1:7000, wrk0=127.0.0.1:8000")
	if err != nil {
		t.Fatal(err)
	}
	if m["ps0"] != "127.0.0.1:7000" || m["wrk0"] != "127.0.0.1:8000" {
		t.Fatalf("parsed %v", m)
	}
	for _, bad := range []string{"", "noequals", "=addr", "id=", "a=1,a=2"} {
		if _, err := parsePeers(bad); err == nil {
			t.Fatalf("accepted bad peers %q", bad)
		}
	}
}

func TestSplitPeers(t *testing.T) {
	servers, workers, err := guanyu.SplitPeers(map[string]string{
		"ps1": "a", "ps0": "b", "wrk0": "c",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 2 || servers[0] != "ps0" || servers[1] != "ps1" {
		t.Fatalf("servers %v", servers)
	}
	if len(workers) != 1 || workers[0] != "wrk0" {
		t.Fatalf("workers %v", workers)
	}
	if _, _, err := guanyu.SplitPeers(map[string]string{"node0": "x"}); err == nil {
		t.Fatal("bad id accepted")
	}
}

// TestParseFlagsValidation: a bad role, a missing ID or a node missing from
// its own -peers is refused by run, through guanyu.RunNode, before the node
// listens; parseFlags itself only parses.
func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-peers", "ps0=1"}, "role must be server or worker"},
		{[]string{"-role", "server", "-peers", "ps0=1"}, "node ID is required"},
		{[]string{"-role", "boss", "-id", "ps0", "-peers", "ps0=1"}, "role must be server or worker, got \"boss\""},
		{[]string{"-role", "server", "-id", "ps0", "-peers", "ps1=1"}, "peers must include this node's id"},
	}
	for i, c := range cases {
		if err := run(c.args, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("case %d %v: got %v, want an error containing %q", i, c.args, err, c.want)
		}
	}
	cfg, err := parseFlags([]string{"-role", "worker", "-id", "wrk0",
		"-peers", "wrk0=127.0.0.1:1,ps0=127.0.0.1:2"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Role != "worker" || cfg.ID != "wrk0" || len(cfg.Peers) != 2 {
		t.Fatalf("parsed %+v", cfg)
	}
}

func TestMkAttack(t *testing.T) {
	if a, err := mkAttack("", 1); err != nil || a != nil {
		t.Fatal("empty mode should be honest")
	}
	for _, mode := range []string{"random", "signflip", "silent"} {
		if a, err := mkAttack(mode, 1); err != nil || a == nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
	if _, err := mkAttack("bogus", 1); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestRunRejectsTooFewNodes(t *testing.T) {
	err := run([]string{"-role", "server", "-id", "ps0",
		"-peers", "ps0=127.0.0.1:0,wrk0=127.0.0.1:1",
		"-fservers", "1", "-fworkers", "1"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "3f+3") {
		t.Fatalf("deployment bound not enforced: %v", err)
	}
}

func TestHashIDStableAndDistinct(t *testing.T) {
	if guanyu.HashID("wrk0") != guanyu.HashID("wrk0") {
		t.Fatal("hash not stable")
	}
	if guanyu.HashID("wrk0") == guanyu.HashID("wrk1") {
		t.Fatal("hash collision on adjacent ids")
	}
}
