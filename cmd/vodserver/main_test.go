package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"vodcast/internal/vodserver"
)

// TestParseFlagsBenchmarkVector: the argument vector benchmark/server.go
// execs the server with is the command line's frozen surface. It must parse
// into exactly the operator's catalogue, everything else at its zero value
// (telemetry on, defaults chosen by vodserver.Start).
func TestParseFlagsBenchmarkVector(t *testing.T) {
	cfg, spanPath, err := parseFlags([]string{
		"-addr", "127.0.0.1:4800", "-stats-addr", "127.0.0.1:4801",
		"-videos", "3", "-segments", "6", "-segment-bytes", "256", "-slot-ms", "40",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := vodserver.Config{
		Addr:      "127.0.0.1:4800",
		StatsAddr: "127.0.0.1:4801",
		Videos: []vodserver.VideoConfig{
			{ID: 1, Segments: 6, SegmentBytes: 256},
			{ID: 2, Segments: 6, SegmentBytes: 256},
			{ID: 3, Segments: 6, SegmentBytes: 256},
		},
		SlotDuration: 40 * time.Millisecond,
	}
	if !reflect.DeepEqual(cfg, want) || spanPath != "" {
		t.Fatalf("parseFlags = %+v, span path %q\nwant %+v", cfg, spanPath, want)
	}
}

// TestParseFlagsRejectsRetiredFlags: the ten tuning flags nothing passed are
// constants now, and the parallelism and telemetry-off switches are gone; the
// command line must refuse them, not ignore them.
func TestParseFlagsRejectsRetiredFlags(t *testing.T) {
	for _, name := range []string{
		"slo-ms", "slo-objective", "alert-interval", "miss-threshold",
		"history-interval", "history-max-bytes", "flight-cooldown", "flight-keep",
		"conntrack-interval", "conn-stalled-ratio",
		"shards", "no-history", "no-conntrack",
	} {
		_, _, err := parseFlags([]string{"-" + name, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s: err = %v, want flag provided but not defined", name, err)
		}
	}
}

// testSeams are the vodserver.Config fields the command line does not set:
// each is set only by tests, and each names what retires it.
var testSeams = map[string]string{
	"DropInstance": "fault injection for tests and drills",
}

// TestConfigFieldsHaveSetters is the Config census: every vodserver.Config
// field is either set as cfg.Field in main.go (assigned, or bound to a flag
// by address) or listed in testSeams, and every testSeams entry is a Config
// field that main.go does not set. A field nothing sets is surface to keep
// compiling for nobody. `make ci` runs this by name.
func TestConfigFieldsHaveSetters(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	fields := map[string]bool{}
	paths, err := filepath.Glob("../../internal/vodserver/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		ast.Inspect(parse(path), func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Config" {
				return true
			}
			for _, field := range ts.Type.(*ast.StructType).Fields.List {
				for _, id := range field.Names {
					fields[id.Name] = true
				}
			}
			return false
		})
	}
	if len(fields) == 0 {
		t.Fatal("no vodserver.Config struct found: it moved and this test checks nothing")
	}

	// Setters: cfg.Field on the left of an assignment or under &.
	set := map[string]bool{}
	cfgField := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "cfg" {
				set[sel.Sel.Name] = true
			}
		}
	}
	ast.Inspect(parse("main.go"), func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				cfgField(lhs)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				cfgField(n.X)
			}
		}
		return true
	})

	var bad []string
	for name := range fields {
		if !set[name] && testSeams[name] == "" {
			bad = append(bad, name+": no setter in main.go and not a listed test seam")
		}
	}
	for name := range testSeams {
		switch {
		case !fields[name]:
			bad = append(bad, name+": listed as a test seam but not a Config field")
		case set[name]:
			bad = append(bad, name+": listed as a test seam but main.go sets it")
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("vodserver.Config census:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestRunReturnsOnSIGTERM: once the listener accepts, a SIGTERM takes
// SIGINT's clean return (srv.Close and the span file's Close run as defers)
// instead of killing the process.
func TestRunReturnsOnSIGTERM(t *testing.T) {
	// The test's own registration keeps a SIGTERM that lands before run has
	// registered (or when run does not register at all) from killing the
	// test binary.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cfg, spanPath, err := parseFlags([]string{"-addr", addr, "-segments", "4", "-segment-bytes", "64", "-slot-ms", "10"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- run(cfg, spanPath) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before accepting: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server not accepting on %s: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}

	// Accepting precedes run's signal registration by a few statements, so
	// the signal is re-sent until run returns.
	for time.Now().Before(deadline) {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run = %v, want nil", err)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	// Unblock the leaked run before failing.
	syscall.Kill(os.Getpid(), syscall.SIGINT)
	<-done
	t.Fatal("run did not return within 5 s of SIGTERM")
}
