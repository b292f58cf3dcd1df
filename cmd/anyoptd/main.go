// Command anyoptd serves the AnyOpt pipeline over a JSON HTTP API (see
// internal/api for the endpoint list):
//
//	anyoptd -listen 127.0.0.1:8080
//	curl -s localhost:8080/v1/testbed
//	curl -s -X POST localhost:8080/v1/discover          # async job
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -s 'localhost:8080/v1/optimize?k=12'
//	curl -s -X POST localhost:8080/v1/churn -d '{"seed":7}'   # inject churn
//	curl -s localhost:8080/v1/reconcile                 # reconciler health
//	curl -s localhost:8080/metrics
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"time"

	"anyopt"
	"anyopt/internal/api"
	"anyopt/internal/campaign"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("anyoptd: ")
	var (
		listen        = flag.String("listen", "127.0.0.1:8080", "address to serve on")
		scale         = flag.String("scale", "test", "topology scale: test, paper, or internet")
		seed          = flag.Int64("seed", 1, "topology seed")
		campaignFile  = flag.String("campaign", "", "preload discovery results from this snapshot")
		checkpointDir = flag.String("checkpoint-dir", "", "enable ?checkpoint=name on discovery jobs, journaling under this directory")
	)
	flag.Parse()

	opts, err := anyopt.ScaleOptions(*scale)
	if err != nil {
		log.Fatal(err)
	}
	opts.Topology.Seed = *seed
	opts.Testbed.Seed = *seed

	sys, err := anyopt.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	if *campaignFile != "" {
		f, err := os.Open(*campaignFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := campaign.Load(f, sys); err != nil {
			log.Fatal(err)
		}
		f.Close()
		log.Printf("campaign loaded from %s", *campaignFile)
	}

	apiSrv := api.NewServer(sys)
	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			log.Fatal(err)
		}
		apiSrv.SetCheckpointDir(*checkpointDir)
		// A crash mid-reconcile leaves patch records without a commit mark:
		// re-apply the journaled churn and queue the unfinished cone repairs
		// rather than serving pre-churn rows as fresh.
		if n, err := apiSrv.ResumePendingRepairs(); err != nil {
			log.Fatal(err)
		} else if n > 0 {
			log.Printf("resumed %d unfinished cone repair(s) from %s", n, *checkpointDir)
		}
	}

	srv := &http.Server{
		Addr:              *listen,
		Handler:           apiSrv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("serving %v on http://%s (scale=%s seed=%d)", sys.Topo.ComputeStats(), *listen, *scale, *seed)
	log.Fatal(srv.ListenAndServe())
}
