package goingwild

import (
	"context"
	"testing"

	"goingwild/internal/domains"
)

func TestFacadeEndToEnd(t *testing.T) {
	study, err := NewStudy(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	if got := ScaleOf(study); got != Scale(1<<16) {
		t.Errorf("scale = %v, want %v", got, Scale(1<<16))
	}
	if len(AllCategories()) != 13 {
		t.Errorf("categories = %d", len(AllCategories()))
	}
	sweep, err := study.SweepAtContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Total() == 0 {
		t.Fatal("empty sweep through the facade")
	}
	p := study.NewPlan()
	out := p.DomainStudy(50, []Category{domains.Dating})
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := out.V
	if res.Report == nil || res.Pre == nil {
		t.Fatalf("incomplete result: %+v", res)
	}
}

func TestFacadeRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Order = 2
	if _, err := NewStudy(cfg); err == nil {
		t.Error("bad order accepted")
	}
}
