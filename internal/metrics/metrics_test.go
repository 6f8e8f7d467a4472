package metrics

import (
	"math"
	"testing"
)

func TestSummaryAccumulation(t *testing.T) {
	var s Summary
	s.Add(100, 1000, 2000, 500, 300, 1.5, 2.0, false)
	s.Add(0, 0, 800, 800, 0, 0, 1.0, true)

	if s.Queries != 2 || s.LocalOnly != 1 {
		t.Fatalf("counts: %+v", s)
	}
	if s.MeanUplink() != 50 {
		t.Errorf("MeanUplink = %v", s.MeanUplink())
	}
	if s.MeanDownlink() != 500 {
		t.Errorf("MeanDownlink = %v", s.MeanDownlink())
	}
	if s.MeanResp() != 0.75 {
		t.Errorf("MeanResp = %v", s.MeanResp())
	}
	if s.MeanCPU() != 1.5 {
		t.Errorf("MeanCPU = %v", s.MeanCPU())
	}
	wantHitC := float64(1300) / 2800
	if math.Abs(s.HitC()-wantHitC) > 1e-12 {
		t.Errorf("HitC = %v, want %v", s.HitC(), wantHitC)
	}
	wantHitB := float64(1600) / 2800
	if math.Abs(s.HitB()-wantHitB) > 1e-12 {
		t.Errorf("HitB = %v, want %v", s.HitB(), wantHitB)
	}
	wantFMR := float64(300) / 1600
	if math.Abs(s.FMR()-wantFMR) > 1e-12 {
		t.Errorf("FMR = %v, want %v", s.FMR(), wantFMR)
	}
}

func TestEmptySummary(t *testing.T) {
	var s Summary
	if s.MeanUplink() != 0 || s.MeanResp() != 0 || s.HitC() != 0 || s.HitB() != 0 || s.FMR() != 0 || s.MeanCPU() != 0 {
		t.Error("empty summary must be all zeros")
	}
}

func TestHitRatesBounded(t *testing.T) {
	var s Summary
	s.Add(1, 1, 100, 60, 40, 0.5, 0.1, false)
	if s.HitC() < 0 || s.HitC() > 1 || s.HitB() < 0 || s.HitB() > 1 || s.FMR() < 0 || s.FMR() > 1 {
		t.Error("rates out of [0,1]")
	}
	if s.HitB() < s.HitC() {
		t.Error("hitb must dominate hitc")
	}
}
