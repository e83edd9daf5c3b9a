// Package wan describes the wide-area link between datacenters.  The
// emulation joins every pair of its datacenters with one Link
// (emul.Config.Link); internal/migrate prices a migration's transfer on it.
//
// The paper's prototype measured roughly 750 MB moved in under an hour over
// a VPN between Barcelona and Piscataway; the emulation uses a link of that
// order by default.
package wan

// Link describes the connectivity between two datacenters.
type Link struct {
	// BandwidthMbps is the usable bandwidth in megabits per second.
	BandwidthMbps float64
	// LatencyMs is the one-way latency in milliseconds.
	LatencyMs float64
}

// DefaultLink mirrors the paper's measured inter-continental VPN path:
// ~750 MB/hour is about 1.7 Mbps sustained; round up to 2 Mbps with 90 ms of
// latency.
var DefaultLink = Link{BandwidthMbps: 2, LatencyMs: 90}
