// Package metrics accumulates the per-query measurements of Section 6.1:
// query-wise uplink and downlink bytes, response time, client CPU cost, and
// the overall cache hit rate (hitc), byte hit rate (hitb) and false miss
// rate (fmr).
package metrics

// Summary aggregates query reports.
type Summary struct {
	Queries   int
	LocalOnly int

	UplinkBytes   int64
	DownlinkBytes int64

	ResultBytes    int64
	SavedBytes     int64
	FalseMissBytes int64

	RespSum float64 // seconds
	CPUSum  float64 // milliseconds
}

// Add records one query's measurements.
func (s *Summary) Add(uplink, downlink, result, saved, falseMiss int, resp, cpuMS float64, local bool) {
	s.Queries++
	if local {
		s.LocalOnly++
	}
	s.UplinkBytes += int64(uplink)
	s.DownlinkBytes += int64(downlink)
	s.ResultBytes += int64(result)
	s.SavedBytes += int64(saved)
	s.FalseMissBytes += int64(falseMiss)
	s.RespSum += resp
	s.CPUSum += cpuMS
}

func (s *Summary) perQuery(v int64) float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(v) / float64(s.Queries)
}

// MeanUplink returns average uplink bytes per query.
func (s *Summary) MeanUplink() float64 { return s.perQuery(s.UplinkBytes) }

// MeanDownlink returns average downlink bytes per query.
func (s *Summary) MeanDownlink() float64 { return s.perQuery(s.DownlinkBytes) }

// MeanResp returns average response time per query in seconds.
func (s *Summary) MeanResp() float64 {
	if s.Queries == 0 {
		return 0
	}
	return s.RespSum / float64(s.Queries)
}

// MeanCPU returns average client CPU per query in milliseconds.
func (s *Summary) MeanCPU() float64 {
	if s.Queries == 0 {
		return 0
	}
	return s.CPUSum / float64(s.Queries)
}

// HitC returns the overall cache hit rate |Rs|/|R| (byte-weighted).
func (s *Summary) HitC() float64 {
	if s.ResultBytes == 0 {
		return 0
	}
	return float64(s.SavedBytes) / float64(s.ResultBytes)
}

// HitB returns the overall byte hit rate |R∩C|/|R|.
func (s *Summary) HitB() float64 {
	if s.ResultBytes == 0 {
		return 0
	}
	return float64(s.SavedBytes+s.FalseMissBytes) / float64(s.ResultBytes)
}

// FMR returns the overall false miss rate P(o not in Rs | o in R∩C).
func (s *Summary) FMR() float64 {
	denom := s.SavedBytes + s.FalseMissBytes
	if denom == 0 {
		return 0
	}
	return float64(s.FalseMissBytes) / float64(denom)
}
