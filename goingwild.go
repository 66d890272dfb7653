// Package goingwild is the public facade of the Going Wild reproduction:
// a from-scratch Go implementation of the measurement and classification
// system of "Going Wild: Large-Scale Classification of Open DNS
// Resolvers" (Kührer, Hupperich, Bushart, Rossow, Holz; IMC 2015),
// running against a deterministic virtual IPv4 Internet.
//
// The typical entry point is a Study, and every experiment runs on one of
// its plans:
//
//	study, err := goingwild.NewStudy(goingwild.DefaultConfig(20))
//	if err != nil { ... }
//	defer study.Close()
//	p := study.NewPlan()
//	series := p.WeeklySeries(nil)     // Figure 1, Tables 1–2
//	result := p.DomainStudy(50, nil)  // the Figure-3 chain
//	err = p.Run(ctx)                  // then read series.V, result.V
//
// Plan.Run takes a context and stops at the next stage boundary or send
// batch once it is cancelled.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package goingwild

import (
	"goingwild/internal/analysis"
	"goingwild/internal/core"
	"goingwild/internal/domains"
)

// Config parameterizes a study; see core.Config for field documentation.
type Config = core.Config

// Study owns one simulated world and the measurement stack.
type Study = core.Study

// DomainStudyResult is the outcome of the Figure-3 processing chain.
type DomainStudyResult = core.DomainStudyResult

// Category is one of the paper's 13 website categories.
type Category = domains.Category

// Scale extrapolates simulated counts to the paper's 2^32 space.
type Scale = analysis.Scale

// DefaultConfig mirrors the paper's setup at a reduced address-space
// order (16–20 for interactive use, 20–24 for benchmarks).
func DefaultConfig(order uint) Config { return core.DefaultConfig(order) }

// NewStudy builds the virtual Internet and wires the scanner,
// acquisition client, and classification pipeline to it.
func NewStudy(cfg Config) (*Study, error) { return core.NewStudy(cfg) }

// AllCategories lists the paper's 13 domain categories.
func AllCategories() []Category { return domains.AllCategories }

// ScaleOf returns the extrapolation factor for a study.
func ScaleOf(s *Study) Scale { return Scale(s.World.ScaleFactor()) }
