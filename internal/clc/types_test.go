package clc

import (
	"math"
	"testing"

	"oclgemm/internal/clsim"
)

// laneKernel wraps body in a one-buffer kernel k(o) run at laneND, with
// gid and the linear local id lid in scope.
func laneKernel(body string) string {
	return "__kernel void k(__global double* o)\n{\n" +
		" const int gid = get_global_id(1) * 4 + get_global_id(0);\n" +
		" const int lid = get_local_id(1) * 2 + get_local_id(0);\n" + body + "\n}"
}

// laneID is laneKernel's lid for global index gid at laneND.
func laneID(gid int) int { return gid/4%2*2 + gid%4%2 }

// TestOpenCLCTypeRules is an oracle for the static type rules that does
// not come from the engine: each kernel's expected buffer is worked out
// in Go from the OpenCL C rules, with float32 arithmetic wherever the C
// operation is single precision. Each kernel also runs on the optimized
// and the raw bytecode, whose results must match. Every product is rounded
// explicitly, so no Go compiler may fuse it into an add.
func TestOpenCLCTypeRules(t *testing.T) {
	cases := []struct {
		name string
		src  string
		n    int
		nd   clsim.NDRange
		want func(o []float64) // o[gid] as C computes it, from the initial buffer
		err  string            // the fault instead, verbatim
	}{
		{
			// Both arms convert to float, the common type, before the
			// division: odd items divide 1.0f, not the int 1.
			name: "ternary_int_float_arms",
			src:  laneKernel("double w = ((lid & 1) ? 1 : 2.5f) / 2;\n o[gid] = w;"),
			n:    8, nd: laneND,
			want: func(o []float64) {
				for gid := range o {
					arm := float32(2.5)
					if laneID(gid)&1 != 0 {
						arm = float32(1)
					}
					o[gid] = float64(arm / 2)
				}
			},
		},
		{
			name: "ternary_float_int_arms",
			src:  laneKernel("double u = ((lid & 2) ? 2.5f : 3) * 2;\n o[gid] = u;"),
			n:    8, nd: laneND,
			want: func(o []float64) {
				for gid := range o {
					arm := float32(3)
					if laneID(gid)&2 != 0 {
						arm = float32(2.5)
					}
					o[gid] = float64(arm * 2)
				}
			},
		},
		{
			// The int converts to float before the add: 16777217 rounds
			// to 16777216.0f first, and the sum rounds back to it.
			name: "int_plus_float",
			src:  tinyKernel("int big = 16777217 + gid * 0;\n o[gid] = big + 0.5f + gid * 0.1f;"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					big := int64(16777217)
					sum, prod := float32(big)+float32(0.5), float32(float32(gid)*float32(0.1))
					o[gid] = float64(sum + prod)
				}
			},
		},
		{
			name: "float_plus_double",
			src:  tinyKernel("float f = 0.1f;\n o[gid] = f + 0.1 * gid;"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					o[gid] = float64(float32(0.1)) + float64(0.1*float64(gid))
				}
			},
		},
		{
			// 0.1f is a float and 0.1 a double; the ternary's type is
			// double.
			name: "literal_suffix",
			src:  tinyKernel("o[gid] = (gid & 1) ? 0.1f : 0.1;"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					o[gid] = 0.1
					if gid&1 != 0 {
						o[gid] = float64(float32(0.1))
					}
				}
			},
		},
		{
			// After 0x, e and f are hex digits, not an exponent or a
			// float suffix: the literals are ints.
			name: "hex_literals",
			src:  tinyKernel("o[gid] = 0xE + 0xF * gid + 0x1e / 4;"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					o[gid] = float64(0xE + 0xF*gid + 0x1e/4)
				}
			},
		},
		{
			// Without 0x, e is an exponent and f a float suffix.
			name: "float_exponent_suffix",
			src:  tinyKernel("o[gid] = 1e3f / 3 + gid;"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					o[gid] = float64(float32(float32(1e3)/3) + float32(gid))
				}
			},
		},
		{
			// Comparisons yield an int, so the division truncates.
			name: "comparison_is_int",
			src:  tinyKernel("int c = (gid > 1) + (0.5f < gid);\n o[gid] = c * 10 / 4;"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					c := 0
					if gid > 1 {
						c++
					}
					if 0.5 < float32(gid) {
						c++
					}
					o[gid] = float64(c * 10 / 4)
				}
			},
		},
		{
			// The scalars broadcast: 0.5f as is, gid converted to float.
			name: "float4_broadcast",
			src:  tinyKernel("vstore4((float4)(1.0f, 2.0f, 3.0f, 4.0f) * 0.5f + gid, gid, o);"),
			n:    16, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					for k := range 4 {
						o[4*gid+k] = float64(float32(float32(k+1)*float32(0.5)) + float32(gid))
					}
				}
			},
		},
		{
			// A type fault keeps the string and position it had when it
			// was found at run time.
			name: "width_mismatch",
			src:  tinyKernel("o[gid] = 7.0;\n float4 a = (float4)(1.0f);\n float2 b = (float2)(2.0f);\n o[gid] = a + b;"),
			n:    8, nd: oneByFour(),
			err: "kernel k: clc: line 7:13: vector width mismatch float4 vs float2",
		},
		{
			// t[0] += x is t[0] = (float)((double)t[0] + x).
			name: "compound_into_float_array",
			src:  tinyKernel("float t[2];\n t[0] = 0.1f;\n t[0] += 0.2 * gid;\n o[gid] = t[0];"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					o[gid] = float64(float32(float64(float32(0.1)) + float64(0.2*float64(gid))))
				}
			},
		},
		{
			// uint arithmetic wraps modulo 2^32.
			name: "uint_wraps",
			src:  tinyKernel("uint u = 0 + gid * 0;\n o[gid] = u - 1;"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					u := uint32(0)
					o[gid] = float64(u - 1)
				}
			},
		},
		{
			// int arithmetic wraps to 32-bit two's complement.
			name: "int_wraps",
			src:  tinyKernel("int x = 2147483647 + gid * 0;\n o[gid] = x + 1;"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					x := int32(2147483647)
					o[gid] = float64(x + 1)
				}
			},
		},
		{
			// An int meeting a uint converts to uint, so the comparison
			// is unsigned: gid - 1 is 4294967295 at gid 0.
			name: "uint_compares_unsigned",
			src:  tinyKernel("uint u = 1 + gid * 0;\n o[gid] = (double)(u > gid - 1);"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					o[gid] = 0
					if uint32(1) > uint32(int32(gid)-1) {
						o[gid] = 1
					}
				}
			},
		},
		{
			// A 'u' suffix makes the literal a uint, so the folded
			// difference wraps modulo 2^32.
			name: "uint_literal_folds",
			src:  tinyKernel("o[gid] = 0u - 1u;"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					zero := uint32(0)
					o[gid] = float64(zero - 1)
				}
			},
		},
		{
			name: "uint_literal_at_run_time",
			src:  tinyKernel("uint u = 1u + gid * 0;\n o[gid] = u - 2u + gid;"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					u := uint32(1)
					o[gid] = float64(u - 2 + uint32(gid))
				}
			},
		},
		{
			// The int meeting 1u converts to uint: gid - 2 is above 1u
			// at gid 0 and 1.
			name: "uint_literal_compares_unsigned",
			src:  tinyKernel("o[gid] = (double)(1u > gid - 2);"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					o[gid] = 0
					if uint32(1) > uint32(int32(gid)-2) {
						o[gid] = 1
					}
				}
			},
		},
		{
			// The division is unsigned: (1U - 2) / 2 is 2147483647, not 0.
			name: "uint_literal_divides_unsigned",
			src:  tinyKernel("o[gid] = (1U - 2) / 2;"),
			n:    8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					one := uint32(1)
					o[gid] = float64((one - 2) / 2)
				}
			},
		},
		{
			name: "dead_type_fault",
			src: tinyKernel("if (gid < 0) {\n float4 a = (float4)(1.0f);\n float2 b = (float2)(2.0f);\n" +
				" o[gid] = a + b;\n }\n o[gid] = 2.0;"),
			n: 8, nd: oneByFour(),
			want: func(o []float64) {
				for gid := range 4 {
					o[gid] = 2
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := runBoth(t, tc.src, tc.n, tc.nd)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("got fault %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected fault: %v", err)
			}
			want := make([]float64, tc.n)
			for i := range want {
				want[i] = float64(i%5) * 0.375 // runBoth's initial buffer
			}
			tc.want(want)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("o[%d] = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}
