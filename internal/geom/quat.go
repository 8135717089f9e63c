package geom

import "math"

// Quat is a unit quaternion w + xi + yj + zk representing a rotation.
// The scalar part is W; (X, Y, Z) is the vector part.
type Quat struct {
	W, X, Y, Z float64
}

// IdentityQuat returns the identity rotation quaternion.
func IdentityQuat() Quat { return Quat{W: 1} }

// QuatFromAxisAngle builds the quaternion for a rotation of angle radians
// about axis.
func QuatFromAxisAngle(axis Vec3, angle float64) Quat {
	u := axis.Normalize()
	s, c := math.Sincos(angle / 2)
	return Quat{W: c, X: u[0] * s, Y: u[1] * s, Z: u[2] * s}
}

// Quat converts Euler angles to the equivalent unit quaternion
// (same ZYX composition as Euler.DCM).
func (e Euler) Quat() Quat {
	sr, cr := math.Sincos(e.Roll / 2)
	sp, cp := math.Sincos(e.Pitch / 2)
	sy, cy := math.Sincos(e.Yaw / 2)
	return Quat{
		W: float64(cy*cp*cr) + float64(sy*sp*sr),
		X: float64(cy*cp*sr) - float64(sy*sp*cr),
		Y: float64(cy*sp*cr) + float64(sy*cp*sr),
		Z: float64(sy*cp*cr) - float64(cy*sp*sr),
	}
}

// Norm returns the quaternion magnitude.
func (q Quat) Norm() float64 {
	return math.Sqrt(float64(q.W*q.W) + float64(q.X*q.X) + float64(q.Y*q.Y) + float64(q.Z*q.Z))
}

// Normalize returns q scaled to unit norm; the zero quaternion maps to
// identity.
func (q Quat) Normalize() Quat {
	n := q.Norm()
	if n == 0 {
		return IdentityQuat()
	}
	return Quat{q.W / n, q.X / n, q.Y / n, q.Z / n}
}

// Conj returns the conjugate (inverse, for a unit quaternion).
func (q Quat) Conj() Quat { return Quat{q.W, -q.X, -q.Y, -q.Z} }

// Mul returns the Hamilton product q*r (apply r first, then q, matching
// DCM multiplication order).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: float64(q.W*r.W) - float64(q.X*r.X) - float64(q.Y*r.Y) - float64(q.Z*r.Z),
		X: float64(q.W*r.X) + float64(q.X*r.W) + float64(q.Y*r.Z) - float64(q.Z*r.Y),
		Y: float64(q.W*r.Y) - float64(q.X*r.Z) + float64(q.Y*r.W) + float64(q.Z*r.X),
		Z: float64(q.W*r.Z) + float64(q.X*r.Y) - float64(q.Y*r.X) + float64(q.Z*r.W),
	}
}

// Apply rotates v by q (equivalent to q.DCM().Apply(v)).
func (q Quat) Apply(v Vec3) Vec3 {
	// v' = v + 2*qv × (qv × v + w*v)
	qv := Vec3{q.X, q.Y, q.Z}
	t := qv.Cross(v).Scale(2)
	return v.Add(t.Scale(q.W)).Add(qv.Cross(t))
}

// DCM converts the (assumed unit) quaternion to a rotation matrix.
func (q Quat) DCM() DCM {
	w, x, y, z := q.W, q.X, q.Y, q.Z
	return DCM{
		{1 - float64(2*(float64(y*y)+float64(z*z))), 2 * (float64(x*y) - float64(w*z)), 2 * (float64(x*z) + float64(w*y))},
		{2 * (float64(x*y) + float64(w*z)), 1 - float64(2*(float64(x*x)+float64(z*z))), 2 * (float64(y*z) - float64(w*x))},
		{2 * (float64(x*z) - float64(w*y)), 2 * (float64(y*z) + float64(w*x)), 1 - float64(2*(float64(x*x)+float64(y*y)))},
	}
}

// Quat converts a rotation matrix to a unit quaternion using Shepperd's
// method (selecting the largest diagonal pivot for numerical robustness).
func (c DCM) Quat() Quat {
	tr := c[0][0] + c[1][1] + c[2][2]
	var q Quat
	switch {
	case tr > c[0][0] && tr > c[1][1] && tr > c[2][2]:
		s := math.Sqrt(tr+1) * 2
		q = Quat{
			W: s / 4,
			X: (c[2][1] - c[1][2]) / s,
			Y: (c[0][2] - c[2][0]) / s,
			Z: (c[1][0] - c[0][1]) / s,
		}
	case c[0][0] > c[1][1] && c[0][0] > c[2][2]:
		s := math.Sqrt(1+c[0][0]-c[1][1]-c[2][2]) * 2
		q = Quat{
			W: (c[2][1] - c[1][2]) / s,
			X: s / 4,
			Y: (c[0][1] + c[1][0]) / s,
			Z: (c[0][2] + c[2][0]) / s,
		}
	case c[1][1] > c[2][2]:
		s := math.Sqrt(1+c[1][1]-c[0][0]-c[2][2]) * 2
		q = Quat{
			W: (c[0][2] - c[2][0]) / s,
			X: (c[0][1] + c[1][0]) / s,
			Y: s / 4,
			Z: (c[1][2] + c[2][1]) / s,
		}
	default:
		s := math.Sqrt(1+c[2][2]-c[0][0]-c[1][1]) * 2
		q = Quat{
			W: (c[1][0] - c[0][1]) / s,
			X: (c[0][2] + c[2][0]) / s,
			Y: (c[1][2] + c[2][1]) / s,
			Z: s / 4,
		}
	}
	return q.Normalize()
}

// Euler converts the quaternion to roll/pitch/yaw via the DCM.
func (q Quat) Euler() Euler { return q.DCM().Euler() }

// Integrate advances the attitude quaternion by body angular rate omega
// (rad/s) over dt seconds using the exact exponential of the constant-rate
// assumption. The returned quaternion is renormalised.
func (q Quat) Integrate(omega Vec3, dt float64) Quat {
	angle := omega.Norm() * dt
	if angle == 0 {
		return q
	}
	dq := QuatFromAxisAngle(omega, angle)
	return q.Mul(dq).Normalize()
}

// AngleTo returns the magnitude (radians) of the rotation taking q to r,
// a convenient attitude-error metric.
func (q Quat) AngleTo(r Quat) float64 {
	d := q.Conj().Mul(r).Normalize()
	w := math.Abs(d.W)
	if w > 1 {
		w = 1
	}
	return 2 * math.Acos(w)
}
