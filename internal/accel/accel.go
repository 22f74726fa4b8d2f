// Package accel provides a macrocell min-max grid for empty-space
// skipping during ray casting — the acceleration Parker et al. use in
// the interactive ray tracer the paper's related work surveys, and a
// concrete instance of §7.1's "preprocessing ... can provide many
// hints to the renderer such that rendering calculations can be
// greatly simplified".
//
// The volume is tiled into cells of CellSize³ grid points; each cell
// records the min/max of the normalized field over the cell plus a
// one-point border (so trilinear interpolation anywhere inside the
// cell stays within the recorded range). The ray caster asks the grid
// once per render for the bounds of the cells the transfer function
// assigns any opacity (Occupied) and clips every ray to them; samples
// outside those bounds are provably transparent, so the clipped
// image is identical to a full march.
package accel

import (
	"fmt"

	"repro/internal/vol"
)

// DefaultCellSize is the macrocell edge length in grid points.
const DefaultCellSize = 8

// Grid is the macrocell min-max structure for one volume (or brick).
type Grid struct {
	// Origin is the parent-grid coordinate of the covered region's
	// lower corner; Dims its extent in grid points.
	Origin [3]int
	Dims   vol.Dims

	cell       int
	nx, ny, nz int // macrocell counts
	// minv/maxv hold normalized value bounds per cell.
	minv, maxv []float32
	// rowMin/rowMax are Rebuild's per-column scratch rows.
	rowMin, rowMax []float32
}

// Build constructs the grid for a volume. normalize maps raw values to
// [0,1] (pass the volume's or brick's Normalize) and must be monotone
// non-decreasing; origin places the data in parent coordinates (zero
// for whole volumes).
func Build(v *vol.Volume, origin [3]int, normalize func(float32) float32, cellSize int) (*Grid, error) {
	g := new(Grid)
	if err := g.Rebuild(v, origin, normalize, cellSize); err != nil {
		return nil, err
	}
	return g, nil
}

// Rebuild recomputes g for v in place, reusing g's storage when it is
// large enough, so a renderer can rebuild a pooled grid per frame
// without allocating. Arguments are as for Build.
//
// Cell c along an axis covers grid points [c·s, (c+1)·s] ∩ [0, N−1]:
// its own points plus the first point of the next cell, which
// trilinear interpolation inside the cell reads. For each (y, z) cell
// column the rows it covers are folded point by point into one
// row-long running min and max, contiguous scans the compiler keeps
// free of bounds checks; each cell then reduces its x span of that
// row. Only the raw min and max of a cell are normalized, which gives
// exactly the per-point result because normalize is monotone.
func (g *Grid) Rebuild(v *vol.Volume, origin [3]int, normalize func(float32) float32, cellSize int) error {
	if cellSize <= 0 {
		cellSize = DefaultCellSize
	}
	if !v.Dims.Valid() {
		return fmt.Errorf("accel: invalid dims %v", v.Dims)
	}
	nxp, nyp, nzp := v.Dims.NX, v.Dims.NY, v.Dims.NZ
	g.Origin, g.Dims, g.cell = origin, v.Dims, cellSize
	g.nx = (nxp + cellSize - 1) / cellSize
	g.ny = (nyp + cellSize - 1) / cellSize
	g.nz = (nzp + cellSize - 1) / cellSize
	g.minv = grow(g.minv, g.nx*g.ny*g.nz)
	g.maxv = grow(g.maxv, g.nx*g.ny*g.nz)
	g.rowMin = grow(g.rowMin, nxp)
	g.rowMax = grow(g.rowMax, nxp)
	rowMin, rowMax := g.rowMin, g.rowMax
	i := 0
	for cz := 0; cz < g.nz; cz++ {
		z0, z1 := cz*cellSize, min((cz+1)*cellSize, nzp-1)
		for cy := 0; cy < g.ny; cy++ {
			y0, y1 := cy*cellSize, min((cy+1)*cellSize, nyp-1)
			for z := z0; z <= z1; z++ {
				for y := y0; y <= y1; y++ {
					off := (z*nyp + y) * nxp
					row := v.Data[off : off+nxp]
					if z == z0 && y == y0 {
						copy(rowMin, row)
						copy(rowMax, row)
						continue
					}
					mn, mx := rowMin[:len(row)], rowMax[:len(row)]
					for x, val := range row {
						mn[x] = min(mn[x], val)
						mx[x] = max(mx[x], val)
					}
				}
			}
			for cx := 0; cx < g.nx; cx++ {
				x0, x1 := cx*cellSize, min((cx+1)*cellSize, nxp-1)
				lo, hi := rowMin[x0], rowMax[x0]
				for _, val := range rowMin[x0+1 : x1+1] {
					lo = min(lo, val)
				}
				for _, val := range rowMax[x0+1 : x1+1] {
					hi = max(hi, val)
				}
				g.minv[i], g.maxv[i] = normalize(lo), normalize(hi)
				i++
			}
		}
	}
	return nil
}

// grow returns s resliced to n entries, reallocating only when its
// capacity is short.
func grow(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

func (g *Grid) cellIndex(cx, cy, cz int) int { return cx + g.nx*(cy+g.ny*cz) }

// Range returns the normalized value bounds of the cell containing
// parent-grid position (x,y,z); ok=false outside the grid.
func (g *Grid) Range(x, y, z float64) (lo, hi float32, ok bool) {
	if x < float64(g.Origin[0]) || y < float64(g.Origin[1]) || z < float64(g.Origin[2]) {
		return 0, 0, false
	}
	cx := int(x-float64(g.Origin[0])) / g.cell
	cy := int(y-float64(g.Origin[1])) / g.cell
	cz := int(z-float64(g.Origin[2])) / g.cell
	if cx >= g.nx || cy >= g.ny || cz >= g.nz {
		return 0, 0, false
	}
	i := g.cellIndex(cx, cy, cz)
	return g.minv[i], g.maxv[i], true
}

// Occupied returns the parent-grid bounds of the cells whose value
// interval maxAlpha (a transfer function's MaxAlpha) maps above zero
// opacity, as a box of continuous coordinates: cell faces, so the box
// holds every position whose interpolated sample can be visible.
// ok=false when every cell is transparent.
func (g *Grid) Occupied(maxAlpha func(lo, hi float32) float32) (b vol.Box, ok bool) {
	lo := [3]int{g.nx, g.ny, g.nz}
	hi := [3]int{-1, -1, -1}
	i := 0
	for cz := 0; cz < g.nz; cz++ {
		for cy := 0; cy < g.ny; cy++ {
			for cx := 0; cx < g.nx; cx++ {
				if maxAlpha(g.minv[i], g.maxv[i]) > 0 {
					c := [3]int{cx, cy, cz}
					for a := range c {
						lo[a] = min(lo[a], c[a])
						hi[a] = max(hi[a], c[a])
					}
				}
				i++
			}
		}
	}
	if hi[0] < 0 {
		return vol.Box{}, false
	}
	s := g.cell
	return vol.Box{
		X0: g.Origin[0] + lo[0]*s, Y0: g.Origin[1] + lo[1]*s, Z0: g.Origin[2] + lo[2]*s,
		X1: g.Origin[0] + (hi[0]+1)*s, Y1: g.Origin[1] + (hi[1]+1)*s, Z1: g.Origin[2] + (hi[2]+1)*s,
	}, true
}

// Cells returns the macrocell counts (for tests and stats).
func (g *Grid) Cells() (nx, ny, nz int) { return g.nx, g.ny, g.nz }

// CellSize returns the cell edge length.
func (g *Grid) CellSize() int { return g.cell }
