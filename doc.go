// Package instant is the root of a from-scratch Go reproduction of
// "Instant GridFTP" (Kettimuthu et al., IPPS/HPGC 2012): Globus Connect
// Multi User and every subsystem it depends on — the GridFTP protocol,
// the GSI security stack with RFC 3820-style proxy certificates, the
// MyProxy Online CA over PAM, the DCSC protocol extension, a Globus
// Online-style hosted transfer service, and the SCP/FTP/GridFTP-Lite
// baselines — all running over an in-process network simulator.
//
// Start with README.md for the tour, DESIGN.md for the system inventory
// and the per-experiment index (E1-E14 plus ablations), and EXPERIMENTS.md
// for the paper-vs-measured record. The packages live under internal/
// (internal/world builds every scenario); runnable entry points under cmd/,
// where `go run ./cmd/benchreport` runs every experiment. This file exists
// so the module root documents itself; the root package holds nothing else.
package instant
