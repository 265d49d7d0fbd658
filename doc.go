// Package repro is the root of the L-CoFL reproduction: a from-scratch Go
// implementation of "Lagrange Coded Federated Learning (L-CoFL) Model for
// Internet of Vehicles" (ICDCS 2022).
//
// The library lives under internal/ (see DESIGN.md for the system
// inventory), runnable examples under examples/, and the experiment CLI
// under cmd/lcofl, and the end-to-end benchmark under benchmark/ (declared
// in BENCHMARK.json). The root package only anchors the module and the
// fusion-centre allocation pins (alloc_test.go).
package repro
