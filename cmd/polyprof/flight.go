package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"polyprof/internal/jobstore"
	"polyprof/internal/obs/flight"
)

// cmdFlight inspects flight-recorder incident bundles written by
// `polyprof serve -data-dir`:
//
//	polyprof flight list -data-dir d            bundles, newest first
//	polyprof flight show <id> -data-dir d       human-readable incident timeline
//	polyprof flight export <id> -data-dir d     raw bundle JSON on stdout
//	polyprof flight gc -data-dir d -keep n      prune old bundles (oldest first)
//
// Bundles live under <data-dir>/flightrec; -dir points at a bundle
// directory directly.
func cmdFlight(args []string) error {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "daemon data directory (bundles under <data-dir>/flightrec)")
	dirFlag := fs.String("dir", "", "bundle directory (overrides -data-dir)")
	keep := fs.Int("keep", 16, "flight gc: newest bundles to keep (0 removes all)")
	maxBytes := fs.Int64("max-bytes", 0, "flight gc: also prune until kept bundles fit this many bytes (0 = no byte cap)")

	// Accept `flight list -data-dir d` and `flight -data-dir d list`
	// alike, matching the other subcommands' operand handling.
	var operands []string
	rest := args
	for len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		operands = append(operands, rest[0])
		rest = rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	operands = append(operands, fs.Args()...)

	verb := "list"
	if len(operands) > 0 {
		verb = operands[0]
	}

	dir := *dirFlag
	if dir == "" {
		if *dataDir == "" {
			return fmt.Errorf("flight: need -data-dir (or -dir) to locate bundles")
		}
		dir = filepath.Join(*dataDir, jobstore.FlightDir)
	}

	switch verb {
	case "list":
		infos, err := flight.List(dir)
		if err != nil {
			return err
		}
		if len(infos) == 0 {
			fmt.Printf("no flight bundles under %s\n", dir)
			return nil
		}
		fmt.Print(flight.RenderList(infos))
		return nil
	case "show", "export":
		if len(operands) < 2 {
			return fmt.Errorf("flight %s: missing bundle id (see `polyprof flight list`)", verb)
		}
		b, err := flight.ReadBundle(dir, operands[1])
		if err != nil {
			return err
		}
		if verb == "show" {
			fmt.Print(flight.Render(b))
			return nil
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		fmt.Println()
		return nil
	case "gc":
		removed, err := flight.GC(dir, *keep, *maxBytes)
		for _, id := range removed {
			fmt.Printf("removed %s\n", id)
		}
		if err != nil {
			return err
		}
		infos, err := flight.List(dir)
		if err != nil {
			return err
		}
		fmt.Printf("flight gc: removed %d bundle(s), %d remain under %s\n", len(removed), len(infos), dir)
		return nil
	default:
		return fmt.Errorf("flight: unknown verb %q (want list, show, export, or gc)", verb)
	}
}
