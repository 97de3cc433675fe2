package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"

	"sttllc/internal/server"
	"sttllc/internal/sim"
)

// The output checks. Each failed check counts its unit as failed.

// dumpHash fingerprints a stats dump by its JSON encoding.
func dumpHash(d sim.StatsDump) [32]byte { return sha256.Sum256(mustJSON(d)) }

// repeatCheck remembers each input's first dump; every later run of the
// same input must reproduce it exactly (paper-grid, pass to pass).
type repeatCheck map[string][32]byte

func (c repeatCheck) observe(key string, d sim.StatsDump) error {
	h := dumpHash(d)
	prev, ok := c[key]
	if !ok {
		c[key] = h
		return nil
	}
	if prev != h {
		return fmt.Errorf("%s: dump differs from its first run", key)
	}
	return nil
}

// bankSide is the part of a dump a replay reproduces: L2, power and
// tier roll-ups (replays run no SMs, so cycles and IPC differ).
func bankSide(d sim.StatsDump) []byte {
	b, err := json.Marshal(struct {
		L2    sim.L2Dump
		Power sim.PowerDump
		Tiers []sim.TierDump
	}{d.L2, d.Power, d.Tiers})
	if err != nil {
		panic(err)
	}
	return b
}

// checkSameConfig holds a replay into the recording's own configuration
// to the recording run's bank-side dump, byte for byte (DESIGN.md §13).
func checkSameConfig(replayed sim.Result, recorded []byte) error {
	if !bytes.Equal(bankSide(replayed.Dump()), recorded) {
		return errors.New("same-config replay dump differs from the recording run's")
	}
	return nil
}

// checkMiss runs a request locally and requires the server's dump (given
// by its hash) to match byte for byte.
func checkMiss(req server.SimulationRequest, got [32]byte) error {
	d, err := localRun(req)
	if err != nil {
		return err
	}
	if dumpHash(*d) != got {
		return errors.New("server dump differs from a local run of the same request")
	}
	return nil
}
