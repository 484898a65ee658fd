package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSV export of experiment results, so the figures can be re-plotted with
// external tooling without re-running the (expensive) measurements.

// speedupCSVParams are the tuned dimensions WriteSpeedupCSV reports, one
// tuned_<name> column each: the paper's Table II parameters.
var speedupCSVParams = []string{"CI", "CB", "S", "R"}

// WriteSpeedupCSV dumps Figure 5/6 cells: one row per (scene, algorithm). A
// dimension the cell's builder does not have (R outside the lazy builder)
// is an empty field.
func WriteSpeedupCSV(w io.Writer, cells []SpeedupCell) error {
	cw := csv.NewWriter(w)
	header := []string{"scene", "algorithm", "base_seconds", "tuned_seconds", "speedup"}
	for _, name := range speedupCSVParams {
		header = append(header, "tuned_"+strings.ToLower(name))
	}
	if err := cw.Write(append(header, "converged_at")); err != nil {
		return err
	}
	for _, c := range cells {
		row := []string{
			c.Scene, c.Algorithm.String(),
			fmt.Sprintf("%.6f", c.Base.Seconds()),
			fmt.Sprintf("%.6f", c.Tuned.Seconds()),
			fmt.Sprintf("%.4f", c.Speedup()),
		}
		for _, name := range speedupCSVParams {
			field := ""
			if v, ok := c.TunedParams[name]; ok {
				field = strconv.Itoa(v)
			}
			row = append(row, field)
		}
		if err := cw.Write(append(row, strconv.Itoa(c.ConvergedAt))); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteDistributionCSV dumps Figure 7 box summaries.
func WriteDistributionCSV(w io.Writer, dists []ParamDistribution) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"label", "param", "min", "q1", "median", "q3", "max", "mean", "n"}); err != nil {
		return err
	}
	for _, d := range dists {
		s := d.Summary
		err := cw.Write([]string{
			d.Label, d.Param,
			fmt.Sprintf("%.4f", s.Min), fmt.Sprintf("%.4f", s.Q1),
			fmt.Sprintf("%.4f", s.Median), fmt.Sprintf("%.4f", s.Q3),
			fmt.Sprintf("%.4f", s.Max), fmt.Sprintf("%.4f", s.Mean),
			strconv.Itoa(s.N),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteConvergenceCSV dumps a Figure 8 curve.
func WriteConvergenceCSV(w io.Writer, pts []ConvergencePoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"iteration", "mean_speedup"}); err != nil {
		return err
	}
	for _, p := range pts {
		if err := cw.Write([]string{strconv.Itoa(p.Iteration), fmt.Sprintf("%.4f", p.MeanSpeedup)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
