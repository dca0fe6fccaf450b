// Analytics-service walkthrough (Figure 8): run the SaaS-style analytics
// endpoint in-process, stream two hours of telemetry to it over TCP exactly
// as host agents would, and drive the operator workflow — stats, learn,
// monitor, summary, anomalies — through the wire protocol.
package main

import (
	"fmt"
	"log"
	"time"

	"cloudgraph"
	"cloudgraph/internal/analytics"
	"cloudgraph/internal/core"
	"cloudgraph/internal/realm"
)

func main() {
	log.SetFlags(0)

	// Start the service on an ephemeral port, over a realm manager that
	// serves the default tenant (the daemon's layout, without -live).
	m, err := realm.NewManager(realm.Config{Engine: core.Config{Window: time.Hour}})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	srv, err := analytics.ServeRealms("127.0.0.1:0", m, nil, analytics.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("analytics service listening on", srv.Addr())

	// A telemetry source: the µserviceBench cluster.
	spec, err := cloudgraph.Preset("microservicebench", 0.15)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := cloudgraph.NewCluster(spec)
	if err != nil {
		log.Fatal(err)
	}

	client, err := analytics.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Stream two hours of summaries in agent-sized batches.
	start := time.Date(2024, 3, 1, 8, 0, 0, 0, time.UTC)
	for h := 0; h < 2; h++ {
		recs, err := cl.CollectHour(start.Add(time.Duration(h) * time.Hour))
		if err != nil {
			log.Fatal(err)
		}
		const batch = 8192
		for i := 0; i < len(recs); i += batch {
			end := i + batch
			if end > len(recs) {
				end = len(recs)
			}
			if err := client.Ingest(recs[i:end]); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("hour %d: streamed %d records\n", h+1, len(recs))
	}
	if _, err := client.Flush(); err != nil {
		log.Fatal(err)
	}

	// Operator workflow over the protocol.
	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server state: %d records across %d windows (%.0f rec/s ingest)\n",
		stats.Records, stats.Windows, stats.RecordsPerSec)

	learn, err := client.Learn()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned baseline: %d µsegments, %d allowed pairs\n", learn.Segments, learn.AllowedPairs)

	mon, err := client.Monitor()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monitor: %d violations, %d alerts\n", mon.Violations, mon.Alerts)

	sum, err := client.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("summary:", sum.Headline)
	fmt.Println("attribution:", sum.Attribution)

	anomalies, err := client.Anomalies()
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range anomalies {
		fmt.Printf("window %d: drift %.3f (anomalous=%v)\n", a.Window, a.Drift, a.Anomalous)
	}
}
