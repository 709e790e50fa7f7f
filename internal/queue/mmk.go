package queue

import "math"

// ErlangC returns the probability that an arriving job must wait in an
// M/M/k queue with k servers and offered load a = lambda * meanService
// (in units of servers, i.e. utilisation rho = a/k). It returns 1 when the
// system is at or beyond saturation, and 0 for a <= 0.
//
// The computation uses the standard numerically stable recurrence on the
// Erlang-B blocking probability:
//
//	B(0, a) = 1;  B(j, a) = a*B(j-1, a) / (j + a*B(j-1, a))
//	C(k, a) = k*B / (k - a*(1-B))
func ErlangC(k int, a float64) float64 {
	if k <= 0 {
		return 1
	}
	if a <= 0 {
		return 0
	}
	if a >= float64(k) {
		return 1
	}
	b := 1.0
	for j := 1; j <= k; j++ {
		b = a * b / (float64(j) + a*b)
	}
	c := float64(k) * b / (float64(k) - a*(1-b))
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// MeanWait returns the mean waiting time (excluding service) of an M/M/k
// queue with the given number of servers, utilisation rho = lambda*S/k and
// mean service time s, where pw is the probability of waiting,
// ErlangC(k, rho*k): a caller that also wants quantiles computes it once.
// It returns +Inf at or beyond saturation.
func MeanWait(pw float64, k int, rho, s float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	if rho <= 0 {
		return 0
	}
	return pw * s / (float64(k) * (1 - rho))
}

// WaitQuantile returns the q-quantile of the waiting time of an M/M/k
// queue. The conditional wait (given that a job waits) is exponential with
// rate k*(1-rho)/s, so:
//
//	P(W > t) = Pw * exp(-k*(1-rho)*t/s)
//	q-quantile: t = s/(k*(1-rho)) * ln(Pw/(1-q))   when Pw > 1-q, else 0.
//
// pw is ErlangC(k, rho*k), as for MeanWait. It returns +Inf at or beyond
// saturation.
func WaitQuantile(pw float64, k int, rho, s, q float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	if rho <= 0 || k <= 0 || s <= 0 {
		return 0
	}
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return math.Inf(1)
	}
	tail := 1 - q
	if pw <= tail {
		return 0
	}
	return s / (float64(k) * (1 - rho)) * math.Log(pw/tail)
}

// MGkWaitScale returns the Allen-Cunneen scaling factor (Ca^2 + Cs^2)/2
// that converts M/M/k waiting time into an M/G/k approximation, where ca2
// and cs2 are the squared coefficients of variation of inter-arrival and
// service times. Poisson arrivals have ca2 = 1.
func MGkWaitScale(ca2, cs2 float64) float64 {
	if ca2 < 0 {
		ca2 = 0
	}
	if cs2 < 0 {
		cs2 = 0
	}
	return (ca2 + cs2) / 2
}

// LogNormalCS2 returns the squared coefficient of variation of a lognormal
// distribution whose underlying normal has standard deviation sigma:
// CV^2 = exp(sigma^2) - 1.
func LogNormalCS2(sigma float64) float64 {
	return math.Exp(sigma*sigma) - 1
}

// LogNormalQuantile returns the q-quantile of a lognormal distribution with
// the given mean (of the distribution itself) and log-space standard
// deviation sigma.
func LogNormalQuantile(mean, sigma, q float64) float64 {
	if mean <= 0 {
		return 0
	}
	mu := math.Log(mean) - sigma*sigma/2
	return math.Exp(mu + sigma*NormQuantile(q))
}

// NormQuantile returns the q-quantile of the standard normal distribution
// using the Beasley-Springer-Moro rational approximation (accurate to about
// 1e-9 over (0, 1)).
func NormQuantile(q float64) float64 {
	if q <= 0 {
		return math.Inf(-1)
	}
	if q >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail regions.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const plow = 0.02425
	switch {
	case q < plow:
		u := math.Sqrt(-2 * math.Log(q))
		return (((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	case q > 1-plow:
		u := math.Sqrt(-2 * math.Log(1-q))
		return -(((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	default:
		u := q - 0.5
		t := u * u
		return (((((a[0]*t+a[1])*t+a[2])*t+a[3])*t+a[4])*t + a[5]) * u /
			(((((b[0]*t+b[1])*t+b[2])*t+b[3])*t+b[4])*t + 1)
	}
}

// SaturationInflation returns the service-time inflation factor applied to
// a resource running at utilisation rho of its capacity. It is ~1 at low
// utilisation and grows hyperbolically near saturation:
//
//	g(rho) = 1 + coeff * rho^power / (1 - rho)
//
// rho is clamped to [0, cap] with cap slightly below 1 so the factor stays
// finite; callers model overload (demand > capacity) separately by scaling
// achieved throughput.
func SaturationInflation(rho, coeff, power float64) float64 {
	if rho <= 0 {
		return 1
	}
	const clamp = 0.995
	if rho > clamp {
		rho = clamp
	}
	return 1 + coeff*math.Pow(rho, power)/(1-rho)
}
