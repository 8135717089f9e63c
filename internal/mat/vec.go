package mat

import (
	"fmt"
	"math"
)

// Vector helpers. The filter code mostly works on small []float64 state
// vectors; these free functions keep that code readable without wrapping
// every vector in a 1-column Mat.

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// AddVec returns a + b as a new slice.
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: AddVec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v + b[i]
	}
	return out
}

// SubVec returns a - b as a new slice.
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: SubVec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v - b[i]
	}
	return out
}

// ScaleVec returns s*a as a new slice.
func ScaleVec(s float64, a []float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = s * v
	}
	return out
}

// Norm returns the Euclidean norm of a.
func Norm(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// Cross returns the 3-D cross product a x b.
func Cross(a, b []float64) []float64 {
	if len(a) != 3 || len(b) != 3 {
		panic(fmt.Sprintf("mat: Cross needs 3-vectors, got %d and %d", len(a), len(b)))
	}
	return []float64{
		float64(a[1]*b[2]) - float64(a[2]*b[1]),
		float64(a[2]*b[0]) - float64(a[0]*b[2]),
		float64(a[0]*b[1]) - float64(a[1]*b[0]),
	}
}

// OuterVec returns the outer product a*bᵀ as a len(a) x len(b) matrix.
func OuterVec(a, b []float64) *Mat {
	out := New(len(a), len(b))
	for i, av := range a {
		for j, bv := range b {
			out.data[i*len(b)+j] = av * bv
		}
	}
	return out
}

// ColVec returns v as an n x 1 matrix (copying v).
func ColVec(v []float64) *Mat {
	m := New(len(v), 1)
	copy(m.data, v)
	return m
}

// RowVec returns v as a 1 x n matrix (copying v).
func RowVec(v []float64) *Mat {
	m := New(1, len(v))
	copy(m.data, v)
	return m
}
