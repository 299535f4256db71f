package plot

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/rooted"
	"repro/internal/wsn"
)

// WriteMap renders the network — and optionally one round of charging
// tours — as a standalone SVG: sensors as dots coloured by charging
// cycle (red = short cycle = hungry, blue = long cycle), the base
// station as a black square, depots as triangles, and each tour as a
// coloured closed polyline from its depot. The map is 700 px wide, its
// height follows the field's aspect ratio, and a non-empty title is
// drawn at the top.
func WriteMap(w io.Writer, nw *wsn.Network, tours []rooted.Tour, title string) error {
	if nw.N() == 0 {
		return fmt.Errorf("plot: map of empty network")
	}
	const widthPx, margin = 700, 24.0
	fw, fh := nw.Field.Width(), nw.Field.Height()
	if fw <= 0 || fh <= 0 {
		return fmt.Errorf("plot: degenerate field %gx%g", fw, fh)
	}
	scale := (float64(widthPx) - 2*margin) / fw
	heightPx := int(fh*scale + 2*margin)
	sx := func(x float64) float64 { return margin + (x-nw.Field.Min.X)*scale }
	sy := func(y float64) float64 { return float64(heightPx) - margin - (y-nw.Field.Min.Y)*scale }

	minC, maxC := nw.MinCycle(), nw.MaxCycle()
	colour := func(cycle float64) string {
		frac := 0.0
		if maxC > minC {
			frac = (cycle - minC) / (maxC - minC)
		}
		// red (short cycle) -> blue (long cycle)
		r := int(math.Round(220 * (1 - frac)))
		b := int(math.Round(220 * frac))
		return fmt.Sprintf("#%02x30%02x", r, b)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		widthPx, heightPx, widthPx, heightPx)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&sb, `<rect x="%g" y="%g" width="%g" height="%g" fill="none" stroke="#888"/>`+"\n",
		sx(nw.Field.Min.X), sy(nw.Field.Max.Y), fw*scale, fh*scale)
	if title != "" {
		fmt.Fprintf(&sb, `<text x="%d" y="16" font-family="sans-serif" font-size="13" text-anchor="middle">%s</text>`+"\n",
			widthPx/2, escape(title))
	}

	// Tours under the markers.
	pts := nw.Points()
	for ti, t := range tours {
		if len(t.Stops) == 0 {
			continue
		}
		color := svgPalette[ti%len(svgPalette)]
		var poly []string
		for _, v := range t.Vertices() {
			p := pts[v]
			poly = append(poly, fmt.Sprintf("%.1f,%.1f", sx(p.X), sy(p.Y)))
		}
		poly = append(poly, poly[0]) // close the tour
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.3" opacity="0.85"/>`+"\n",
			strings.Join(poly, " "), color)
	}

	for _, s := range nw.Sensors {
		fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n",
			sx(s.Pos.X), sy(s.Pos.Y), colour(s.Cycle))
	}
	for _, d := range nw.Depots {
		x, y := sx(d.X), sy(d.Y)
		fmt.Fprintf(&sb, `<polygon points="%.1f,%.1f %.1f,%.1f %.1f,%.1f" fill="#222"/>`+"\n",
			x, y-6, x-5, y+4, x+5, y+4)
	}
	bx, by := sx(nw.Base.X), sy(nw.Base.Y)
	fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="8" height="8" fill="black"/>`+"\n", bx-4, by-4)
	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
