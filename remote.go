package rdffrag

// Distributed deployment over real sockets. A deployment's sites can be
// hosted by separate processes (`rdffrag site`) and fronted here by
// robust HTTP clients, or kept in-process over the simulated channel
// RPC — the executor cannot tell the difference. Fault injection
// (SiteConfig.Chaos) makes a site host fail deterministically, for
// robustness tests of the networked path.

import (
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/transport"
)

// ChaosConfig configures the deterministic seeded fault injector a site
// host applies to its request and stream handling (SiteConfig.Chaos).
type ChaosConfig = cluster.ChaosConfig

// SiteMetrics is one remote site client's robustness counters.
type SiteMetrics = cluster.SiteMetrics

// SiteConfig configures a fragment-host HTTP handler (see SiteHandler).
type SiteConfig struct {
	// Sites restricts which site IDs the handler answers for; nil
	// serves all of them.
	Sites []int
	// Chaos, when non-nil, injects deterministic faults into this
	// handler's request and stream handling.
	Chaos *ChaosConfig
}

// SiteHost is a fragment-host HTTP handler with drain control: once
// MarkDraining is called its /healthz answers 503 so load balancers
// stop routing here, while /eval keeps draining in-flight streams.
type SiteHost = transport.SiteServer

// SiteHandler exposes this deployment's fragments over HTTP: POST /eval
// streams binding batches, GET /healthz and GET /metrics serve probes
// and counters. It is what `rdffrag site` mounts, flipping the health
// probe when SIGTERM starts the drain; tests mount it on httptest
// servers. The process must have built its deployment from the same
// data and workload files as the control site (the deterministic
// pipeline makes the dictionaries agree).
func (dep *Deployment) SiteHandler(cfg SiteConfig) *SiteHost {
	dep.ensureColdFragment()
	var chaos *cluster.Chaos
	if cfg.Chaos != nil {
		chaos = cluster.NewChaos(*cfg.Chaos)
	}
	return transport.NewSiteServer(transport.ServerConfig{
		Cluster: dep.cluster,
		Dict:    dep.db.graph.Dict,
		Sites:   cfg.Sites,
		Chaos:   chaos,
	})
}

// RemoteConfig tunes the robust site clients a server uses to reach
// remote sites (ServerConfig.Remote).
type RemoteConfig struct {
	// Sites maps site IDs to the base URLs of their `rdffrag site`
	// servers, e.g. {2: "http://10.0.0.7:7402"}. Unmapped sites
	// evaluate in-process.
	Sites map[int]string
	// Retries bounds retry attempts per site call after the first
	// (default 3); Backoff is the base exponential backoff delay with
	// jitter (default 50ms).
	Retries int
	Backoff time.Duration
	// FrameTimeout is the per-frame progress deadline: a site call
	// producing no frame for this long, counted from the request, is cut
	// and retried (default 10s).
	FrameTimeout time.Duration
	// BreakerThreshold consecutive failed attempts open a site's
	// circuit breaker for BreakerCooldown before a half-open probe
	// (defaults 5 and 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// PartialResults selects graceful degradation: queries touching a
	// site that stays unavailable return flagged partial results
	// instead of failing (default: fail the query).
	PartialResults bool
}

// wireRemotes installs robust site clients on the deployment's engine
// per cfg; called by StartServer, with the number of queries it runs at
// once, before serving begins. The clients share one HTTP client, which
// keeps as many connections to a site process idle between queries as
// its sites can have streams open at once: one per worker and site.
func (dep *Deployment) wireRemotes(cfg RemoteConfig, workers int) {
	dep.engine.PartialResults = cfg.PartialResults
	if len(cfg.Sites) == 0 {
		return
	}
	sitesAt, most := map[string]int{}, 0
	for _, baseURL := range cfg.Sites {
		sitesAt[baseURL]++
		most = max(most, sitesAt[baseURL])
	}
	client := transport.NewHTTPClient(workers * most)
	remotes := make(map[int]cluster.SiteEval, len(cfg.Sites))
	for site, baseURL := range cfg.Sites {
		remotes[site] = transport.NewSiteClient(transport.ClientConfig{
			BaseURL:      baseURL,
			Site:         site,
			Dict:         dep.db.graph.Dict,
			HTTP:         client,
			Retries:      cfg.Retries,
			Backoff:      cfg.Backoff,
			FrameTimeout: cfg.FrameTimeout,
			Breaker: transport.BreakerConfig{
				Threshold: cfg.BreakerThreshold,
				Cooldown:  cfg.BreakerCooldown,
			},
		})
	}
	dep.engine.Remotes = remotes
}
