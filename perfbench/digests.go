package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// pinned are the output digests of the default seed, recorded from the
// program as it was when the benchmark was written. A pass whose
// digest differs fails its output check. markov-proof and paper-suite
// ignore the seed, so their digests hold for every seed.
var pinned = map[string]string{
	"fleet-slots":          "ddde9b88ef39e010",
	"fleet-slots/short":    "a2ffc02ac0a00c24",
	"fleetd-service":       "8a698366faafae74",
	"fleetd-service/short": "55fbfb41948a40d0",
	"paper-suite":          "6c827b0a95d183c5",
	"paper-suite/short":    "1e9dcda8c672c879",
	"markov-proof":         "states=776032 absorbing=30048 lemma1=ok lemma2=ok mean=403127af1e55b3cb worst=4038c88c281aa982",
	"markov-proof/short":   "states=2652 absorbing=96 lemma1=ok lemma2=ok mean=402c3ce518f89e66 worst=403d7849ea4b3772",
}

// pinnedDigest returns the digest pinned for this workload, seed and
// size, or "" when none is (other seeds print theirs for comparing two
// commits).
func pinnedDigest(workload string, o options) string {
	if o.seed != defaultSeed && workload != "markov-proof" && workload != "paper-suite" {
		return ""
	}
	key := workload
	if o.short {
		key += "/short"
	}
	return pinned[key]
}

// digestLines hashes lines in order into a short hex digest.
func digestLines(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintf(h, "%d:%s\n", len(l), l)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// indexedLines renders "index=value" for each value, in index order.
func indexedLines(vals []string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%d=%s", i, v)
	}
	return out
}
