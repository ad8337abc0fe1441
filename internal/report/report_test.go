package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vodcast/internal/core"
	"vodcast/internal/experiments"
	"vodcast/internal/trace"
)

func TestTableValidate(t *testing.T) {
	good := Table{Title: "t", Columns: []string{"a", "b"}}
	good.AddRow("1", "2")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		tbl  Table
	}{
		{name: "no title", tbl: Table{Columns: []string{"a"}}},
		{name: "no columns", tbl: Table{Title: "x"}},
		{
			name: "ragged row",
			tbl:  Table{Title: "x", Columns: []string{"a", "b"}, Rows: [][]string{{"1"}}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.tbl.Validate(); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestRenderText(t *testing.T) {
	tbl := Table{Title: "demo", Columns: []string{"x", "y"}}
	tbl.AddRow("1", "2.00")
	tbl.AddRow("10", "20.00")
	var buf bytes.Buffer
	if err := RenderText(&buf, tbl, tbl); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "demo") != 2 {
		t.Fatalf("output: %q", out)
	}
	if !strings.Contains(out, "20.00") {
		t.Fatalf("missing cell in %q", out)
	}
}

func TestRenderTextRejectsBadTable(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderText(&buf, Table{}); err == nil {
		t.Fatal("want error")
	}
}

func TestRenderJSONRoundTrip(t *testing.T) {
	tbl := Table{Title: "j", Columns: []string{"a"}}
	tbl.AddRow("42")
	var buf bytes.Buffer
	if err := RenderJSON(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	var back []Table
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Title != "j" || back[0].Rows[0][0] != "42" {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestFormattingHelpers(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Fatalf("F = %q", F(3.14159, 2))
	}
	if I(7) != "7" || I(-9) != "-9" {
		t.Fatal("integer helpers broken")
	}
}

// TestAllBuildersProduceValidTables runs every experiment at a tiny scale
// and feeds the rows through its table builder.
func TestAllBuildersProduceValidTables(t *testing.T) {
	cfg := experiments.QuickConfig()
	cfg.Rates = []float64{20}
	cfg.IncludeAblation = true
	sweep, err := experiments.Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peaks, err := experiments.Peaks(30, 500)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := experiments.ClientCap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zoo, err := experiments.ReactiveZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dsb, err := experiments.DSBComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := experiments.Models(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := experiments.ConfidenceSweep(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	waits, err := experiments.WaitTradeoff(cfg, []int{9, 19})
	if err != nil {
		t.Fatal(err)
	}
	vbrCfg := experiments.QuickVBRConfig()
	vbrCfg.Rates = []float64{20}
	f9, plans, err := experiments.Fig9(vbrCfg)
	if err != nil {
		t.Fatal(err)
	}

	tables := []Table{
		Fig7(sweep),
		Fig8(sweep),
		Ablation(sweep),
		Peaks(peaks),
		ClientCap(caps),
		ReactiveZoo(zoo),
		DSB(dsb),
		Models(models),
		Confidence(ci),
		WaitTradeoff(waits),
		VBRPlan(plans, map[core.VBRVariant]float64{
			core.VariantA: f9[0].DHBA, core.VariantB: f9[0].DHBB,
			core.VariantC: f9[0].DHBC, core.VariantD: f9[0].DHBD,
		}),
	}
	tables = append(tables, Fig9(f9, plans)...)
	var buf bytes.Buffer
	if err := RenderText(&buf, tables...); err != nil {
		t.Fatal(err)
	}
	if err := RenderJSON(&buf, tables...); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output rendered")
	}
}

// TestFig9TableContent pins a couple of cells so a builder regression (wrong
// column, wrong units) cannot slip through.
func TestFig9TableContent(t *testing.T) {
	tr, err := trace.SyntheticMatrix(42)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := core.PlanVBR(tr, 60)
	if err != nil {
		t.Fatal(err)
	}
	tables := Fig9([]experiments.Fig9Row{{RatePerHour: 10, UD: 5.13, DHBA: 3.05}}, plans)
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(tables))
	}
	planRows := tables[0].Rows
	if planRows[0][0] != "DHB-a" || planRows[0][2] != "137" {
		t.Fatalf("plan row = %v", planRows[0])
	}
	sweepRows := tables[1].Rows
	if sweepRows[0][1] != "5.13" {
		t.Fatalf("sweep row = %v", sweepRows[0])
	}
}
