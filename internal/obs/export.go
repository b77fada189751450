package obs

import (
	"fmt"
	"io"

	"starperf/internal/desim"
)

// The exporters write byte-deterministic output: fixed column orders,
// %g float formatting and no timestamps, so identical runs produce
// identical files (the repo's determinism gate extends to artifacts).

// WriteSeriesCSV writes the gauge time series as CSV, one row per
// sample.
func (m Metrics) WriteSeriesCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "cycle,busy_channels,chan_util,vc_occupancy,class_a_busy,class_b_busy,queued,max_queue"); err != nil {
		return err
	}
	for _, s := range m.Samples {
		_, err := fmt.Fprintf(w, "%d,%d,%g,%g,%d,%d,%d,%d\n",
			s.Cycle, s.BusyChannels, s.ChanUtil, s.VCOccupancy,
			s.ClassABusy, s.ClassBBusy, s.Queued, s.MaxQueue)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteHopCSV writes the per-hop blocking counters as CSV. The final
// row, labelled "eject", covers the ejection channel.
func (ct Counters) WriteHopCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "hop,grants,blocked,block_prob,mean_wait,wait_per_grant,misroutes"); err != nil {
		return err
	}
	row := func(label string, h HopStats) error {
		_, err := fmt.Fprintf(w, "%s,%d,%d,%g,%g,%g,%d\n",
			label, h.Grants, h.Blocked, h.BlockProb(), h.MeanWait(), h.WaitPerGrant(), h.Misroutes)
		return err
	}
	for i, h := range ct.PerHop {
		if err := row(fmt.Sprintf("%d", i), h); err != nil {
			return err
		}
	}
	return row("eject", ct.Ejection)
}

// WriteTraceJSONL writes the ring-buffered lifecycle trace as JSON
// Lines, one event per line in emission order. Fields are emitted by
// hand in a fixed order; optional fields (hop/wait/reason/misroute)
// appear only on the kinds that define them, keeping lines compact.
func (c *Collector) WriteTraceJSONL(w io.Writer) error {
	for _, ev := range c.Trace() {
		if err := writeEventJSON(w, ev); err != nil {
			return err
		}
	}
	return nil
}

func writeEventJSON(w io.Writer, ev desim.Event) error {
	if _, err := fmt.Fprintf(w, `{"cycle":%d,"kind":%q,"msg":%d,"node":%d,"vc":%d`,
		ev.Cycle, ev.Kind.String(), ev.Msg, ev.Node, ev.VC); err != nil {
		return err
	}
	switch ev.Kind {
	case desim.EvGrant:
		if _, err := fmt.Fprintf(w, `,"hop":%d,"wait":%d`, ev.Hop, ev.Wait); err != nil {
			return err
		}
		if ev.Misroute {
			if _, err := io.WriteString(w, `,"misroute":true`); err != nil {
				return err
			}
		}
	case desim.EvBlock:
		if _, err := fmt.Fprintf(w, `,"hop":%d,"reason":%q`, ev.Hop, ev.Reason.String()); err != nil {
			return err
		}
	case desim.EvDeliver:
		if _, err := fmt.Fprintf(w, `,"hop":%d`, ev.Hop); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}
