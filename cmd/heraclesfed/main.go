// Command heraclesfed fronts a fleet of heraclesd daemons with one
// federated control plane: instance creates are placed on members by
// consistent hashing, reads and actuation proxy through to the hosting
// daemon, jobs fan out round-robin, and /healthz and /metrics aggregate
// the whole federation. Migration between members rides the daemons'
// checkpoint/restore migration primitive.
//
//	heraclesd -addr :8080 -noboot &
//	heraclesd -addr :8081 -noboot &
//	heraclesfed -addr :8070 -members http://localhost:8080,http://localhost:8081
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"heracles/internal/debughttp"
	"heracles/internal/fed"
)

func main() {
	addr := flag.String("addr", ":8070", "HTTP listen address for the federation router")
	members := flag.String("members", "", "comma-separated base URLs of member heraclesd daemons (required)")
	seed := flag.Uint64("seed", 0, "consistent-hash placement seed (0 = built-in default)")
	pprofAddr := flag.String("pprof-addr", "", "separate listen address for pprof profiles and Go runtime metrics (empty = off)")
	flag.Parse()

	if *pprofAddr != "" {
		dbg, err := debughttp.Start(*pprofAddr)
		if err != nil {
			log.Fatalf("heraclesfed: %v", err)
		}
		defer dbg.Close()
		log.Printf("heraclesfed: profiling listener on %s (/debug/pprof, runtime /metrics)", dbg.Addr)
	}

	var urls []string
	for _, m := range strings.Split(*members, ",") {
		if m = strings.TrimSpace(m); m != "" {
			urls = append(urls, m)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "heraclesfed: -members is required (comma-separated daemon base URLs)")
		flag.Usage()
		os.Exit(2)
	}

	router, err := fed.NewRouter(fed.Config{Members: urls, Seed: *seed})
	if err != nil {
		log.Fatalf("heraclesfed: %v", err)
	}
	log.Printf("heraclesfed: routing %d members on %s", len(urls), *addr)
	// heraclesd's timeouts, for the same reason: no WriteTimeout, because
	// proxied SSE streams are long-lived responses one would sever.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           router.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	log.Fatal(srv.ListenAndServe())
}
