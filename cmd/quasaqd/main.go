// Command quasaqd runs a QoS-aware multimedia database server: an
// in-process three-site cluster loaded with the synthetic corpus, exposed
// over a line-oriented TCP protocol (see Server). The virtual clock tracks
// wall time so playing sessions progress between client calls.
//
// Usage:
//
//	quasaqd -addr :7766 -speed 1
//
// then interact with cmd/qsqctl, e.g.:
//
//	qsqctl STATUS
//	qsqctl SEARCH "SELECT * FROM videos WHERE tags CONTAINS 'medical'"
//	qsqctl PLAY srv-a v001 vcd
package main

import (
	"flag"
	"fmt"
	"log"
	"net"

	"quasaq"
)

func main() {
	var (
		addr  = flag.String("addr", ":7766", "listen address")
		seed  = flag.Uint64("seed", 42, "corpus seed")
		speed = flag.Float64("speed", 1, "virtual seconds per wall second")
	)
	flag.Parse()

	db, err := quasaq.Open(quasaq.Options{Videos: quasaq.StandardCorpus(*seed)})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quasaqd: %d videos on %v, listening on %s (speed %.1fx)\n",
		len(db.Videos()), db.Sites(), ln.Addr(), *speed)
	log.Fatal(NewServer(db, *speed).Serve(ln))
}
