package accel

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/vol"
)

func ident(v float32) float32 { return v }

func TestBuildCellCounts(t *testing.T) {
	v := vol.MustNew(vol.Dims{NX: 17, NY: 8, NZ: 9})
	g, err := Build(v, [3]int{0, 0, 0}, ident, 8)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := g.Cells()
	if nx != 3 || ny != 1 || nz != 2 {
		t.Fatalf("cells %d %d %d", nx, ny, nz)
	}
	if g.CellSize() != 8 {
		t.Fatal("cell size")
	}
	// Default cell size applies for 0.
	g2, err := Build(v, [3]int{0, 0, 0}, ident, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.CellSize() != DefaultCellSize {
		t.Fatalf("default cell size %d", g2.CellSize())
	}
}

func TestRangeCoversInterpolation(t *testing.T) {
	// A spike at a cell-boundary grid point must appear in BOTH
	// adjacent cells' ranges (interpolation support crosses the
	// boundary).
	v := vol.MustNew(vol.Dims{NX: 16, NY: 16, NZ: 16})
	v.Fill(func(x, y, z int) float32 {
		if x == 8 && y == 4 && z == 4 {
			return 1
		}
		return 0
	})
	g, err := Build(v, [3]int{0, 0, 0}, ident, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Cell containing x=8 (second cell) and the cell before it.
	_, hi1, ok := g.Range(8.1, 4, 4)
	if !ok || hi1 != 1 {
		t.Fatalf("own cell max %v ok=%v", hi1, ok)
	}
	_, hi0, ok := g.Range(7.9, 4, 4)
	if !ok || hi0 != 1 {
		t.Fatalf("border cell max %v ok=%v — interpolation support not covered", hi0, ok)
	}
	// A far cell stays empty.
	lo, hi, ok := g.Range(1, 12, 12)
	if !ok || lo != 0 || hi != 0 {
		t.Fatalf("far cell [%v,%v] ok=%v", lo, hi, ok)
	}
}

func TestRangeOutside(t *testing.T) {
	v := vol.MustNew(vol.Dims{NX: 8, NY: 8, NZ: 8})
	g, err := Build(v, [3]int{10, 10, 10}, ident, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := g.Range(5, 5, 5); ok {
		t.Fatal("point before origin accepted")
	}
	if _, _, ok := g.Range(100, 12, 12); ok {
		t.Fatal("point past extent accepted")
	}
	if _, _, ok := g.Range(12, 12, 12); !ok {
		t.Fatal("interior point rejected")
	}
}

// scatterBuild is the original per-point build, kept as the reference
// the row scan must reproduce: every grid point is normalized and
// scattered into each cell whose interpolation support contains it.
func scatterBuild(v *vol.Volume, normalize func(float32) float32, cellSize int) (minv, maxv []float32) {
	nx := (v.Dims.NX + cellSize - 1) / cellSize
	ny := (v.Dims.NY + cellSize - 1) / cellSize
	nz := (v.Dims.NZ + cellSize - 1) / cellSize
	minv = make([]float32, nx*ny*nz)
	maxv = make([]float32, nx*ny*nz)
	for i := range minv {
		minv[i] = float32(math.Inf(1))
		maxv[i] = float32(math.Inf(-1))
	}
	for z := 0; z < v.Dims.NZ; z++ {
		for y := 0; y < v.Dims.NY; y++ {
			for x := 0; x < v.Dims.NX; x++ {
				val := normalize(v.At(x, y, z))
				cx0, cx1 := cellRange(x, cellSize, nx)
				cy0, cy1 := cellRange(y, cellSize, ny)
				cz0, cz1 := cellRange(z, cellSize, nz)
				for cz := cz0; cz <= cz1; cz++ {
					for cy := cy0; cy <= cy1; cy++ {
						for cx := cx0; cx <= cx1; cx++ {
							i := cx + nx*(cy+ny*cz)
							minv[i] = min(minv[i], val)
							maxv[i] = max(maxv[i], val)
						}
					}
				}
			}
		}
	}
	return minv, maxv
}

// cellRange returns the cells whose interpolation support includes
// grid point p: its own cell plus the previous cell when p lies on a
// cell boundary (trilinear interpolation reads one point beyond the
// cell's high face).
func cellRange(p, cellSize, n int) (lo, hi int) {
	c := p / cellSize
	lo, hi = c, c
	if p%cellSize == 0 && c > 0 {
		lo = c - 1
	}
	if hi > n-1 {
		hi = n - 1
	}
	return lo, hi
}

// mixingBrick returns the left half of a mid-run mixing step, ghosted
// as the pipeline extracts it: 82x64x64 grid points.
func mixingBrick(tb testing.TB) *vol.Brick {
	tb.Helper()
	g, err := datagen.ByName("mixing", 0.25, 0)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := g.Step(g.Steps() / 2)
	if err != nil {
		tb.Fatal(err)
	}
	boxes, err := vol.SplitKD(v.Dims, 2)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := v.Extract(boxes[0], 2)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// The row-scan build must give exactly the per-cell ranges of the
// per-point scatter build, on ghosted bricks whose dims are and are
// not multiples of the cell size, and when a grid is rebuilt in place
// for a different volume.
func TestRowScanBuildMatchesScatter(t *testing.T) {
	g, err := datagen.ByName("jet", 0.15, 8)
	if err != nil {
		t.Fatal(err)
	}
	v, err := g.Step(3)
	if err != nil {
		t.Fatal(err)
	}
	var bricks []*vol.Brick
	for _, n := range []int{1, 3, 4} {
		boxes, err := vol.SplitKD(v.Dims, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range boxes {
			br, err := v.Extract(b, 2)
			if err != nil {
				t.Fatal(err)
			}
			bricks = append(bricks, br)
		}
	}
	bricks = append(bricks, mixingBrick(t))
	reused := new(Grid)
	for _, br := range bricks {
		for _, cs := range []int{1, 3, 8, 16} {
			wantMin, wantMax := scatterBuild(br.Data, br.Normalize, cs)
			got, err := Build(br.Data, br.Origin, br.Normalize, cs)
			if err != nil {
				t.Fatal(err)
			}
			if err := reused.Rebuild(br.Data, br.Origin, br.Normalize, cs); err != nil {
				t.Fatal(err)
			}
			for _, g := range []*Grid{got, reused} {
				if len(g.minv) != len(wantMin) {
					t.Fatalf("dims %v cell %d: %d cells, want %d", br.Data.Dims, cs, len(g.minv), len(wantMin))
				}
				for i := range wantMin {
					if g.minv[i] != wantMin[i] || g.maxv[i] != wantMax[i] {
						t.Fatalf("dims %v cell %d: cell %d range [%v,%v], want [%v,%v]",
							br.Data.Dims, cs, i, g.minv[i], g.maxv[i], wantMin[i], wantMax[i])
					}
				}
			}
		}
	}
}

// Occupied bounds the cells with any opacity, in parent coordinates.
func TestOccupiedBounds(t *testing.T) {
	v := vol.MustNew(vol.Dims{NX: 32, NY: 24, NZ: 20})
	v.Fill(func(x, y, z int) float32 {
		if x == 12 && y == 9 && z == 17 {
			return 1
		}
		return 0
	})
	g, err := Build(v, [3]int{100, 200, 300}, ident, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Opaque only above 0.5: the spike's cells. x=12 lies in cell 1
	// only; y=9 in cell 1; z=17 in cell 2 (z=16 would be shared).
	above := func(lo, hi float32) float32 {
		if hi > 0.5 {
			return 1
		}
		return 0
	}
	b, ok := g.Occupied(above)
	want := vol.Box{X0: 108, X1: 116, Y0: 208, Y1: 216, Z0: 316, Z1: 324}
	if !ok || b != want {
		t.Fatalf("occupied %v ok=%v, want %v", b, ok, want)
	}
	if _, ok := g.Occupied(func(lo, hi float32) float32 { return 0 }); ok {
		t.Fatal("transparent grid reported occupied cells")
	}
}

func BenchmarkAccelBuild(b *testing.B) {
	br := mixingBrick(b)
	g := new(Grid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Rebuild(br.Data, br.Origin, br.Normalize, 0); err != nil {
			b.Fatal(err)
		}
	}
}
