package modelcheck

import (
	"testing"
	"time"
)

// BenchmarkCampaignPooled times a shrinking campaign over every real
// scheme x lock combination on two workers, each reusing one case
// instance for all its cases and shrink replays. It reports cases/s
// alongside the per-campaign B/op.
func BenchmarkCampaignPooled(b *testing.B) {
	cfg := CampaignConfig{SeedBase: 1, Seeds: 2, Shrink: true, Workers: 2}
	b.ReportAllocs()
	cases := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		cases += RunCampaign(cfg).TotalCases
	}
	b.ReportMetric(float64(cases)/time.Since(start).Seconds(), "cases/s")
}
