package codegen_test

import (
	"math/rand"
	"testing"

	"oclgemm/internal/clc"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

// The generated §III-D copy kernel, executed from its OpenCL C
// source, must agree with the host pack for every layout and transpose
// mode.
func TestGeneratedPackSourceMatchesHost(t *testing.T) {
	for _, layout := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
		for _, transpose := range []bool{false, true} {
			pp := codegen.PackParams{
				Precision: matrix.Double, Layout: layout,
				Rb: 4, Cb: 8, Transpose: transpose,
				WGX: 8, WGY: 4,
			}
			src, err := pp.GeneratePackSource()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := clc.Compile(src)
			if err != nil {
				t.Fatalf("clc compile: %v\n%s", err, src)
			}
			kern, err := prog.Kernel(codegen.PackKernelName)
			if err != nil {
				t.Fatal(err)
			}

			m := matrix.New[float64](11, 7, matrix.RowMajor)
			m.FillRandom(rand.New(rand.NewSource(3)))
			dr, dc := 11, 7
			if transpose {
				dr, dc = 7, 11
			}
			r := matrix.PadDim(dr, pp.Rb)
			c := matrix.PadDim(dc, pp.Cb)
			dst := make([]float64, r*c)
			bound, err := kern.Bind(m.Rows, m.Cols, m.Stride, r, c, m.Data, dst)
			if err != nil {
				t.Fatal(err)
			}
			g, l := pp.PackNDRange(r, c)
			q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
			if err := q.Run(bound, clsim.NDRange{Global: g, Local: l}); err != nil {
				t.Fatalf("run: %v\n%s", err, src)
			}
			want := matrix.Pack(m, transpose, r, c, pp.Rb, pp.Cb, layout)
			for i := range want.Data {
				if dst[i] != want.Data[i] {
					t.Fatalf("layout=%v transpose=%v: element %d: %v vs %v",
						layout, transpose, i, dst[i], want.Data[i])
				}
			}
		}
	}
}

// Float32 pack through the clc VM.
func TestGeneratedPackSourceFloat32(t *testing.T) {
	pp := codegen.PackParams{Precision: matrix.Single, Layout: matrix.LayoutCBL, Rb: 4, Cb: 4}
	src, err := pp.GeneratePackSource()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	kern, _ := prog.Kernel(codegen.PackKernelName)
	m := matrix.New[float32](6, 6, matrix.RowMajor)
	m.FillRandom(rand.New(rand.NewSource(4)))
	dst := make([]float32, 8*8)
	bound, err := kern.Bind(6, 6, 6, 8, 8, m.Data, dst)
	if err != nil {
		t.Fatal(err)
	}
	g, l := pp.PackNDRange(8, 8)
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
	if err := q.Run(bound, clsim.NDRange{Global: g, Local: l}); err != nil {
		t.Fatal(err)
	}
	want := matrix.Pack(m, false, 8, 8, 4, 4, matrix.LayoutCBL)
	for i := range want.Data {
		if dst[i] != want.Data[i] {
			t.Fatalf("float32 pack differs at %d", i)
		}
	}
}
