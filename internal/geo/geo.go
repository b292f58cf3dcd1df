// Package geo models geography-driven network latency.
//
// The AnyOpt paper measures RTTs between anycast sites and ~15k client-network
// routers across the real Internet. In the simulation, every AS and every
// anycast site carries a geographic coordinate, and the base propagation
// delay of a link or end-to-end path is derived from great-circle distance.
// Real Internet paths are longer than geodesics (fiber routes, detours,
// queuing), so the model applies a configurable path-inflation factor plus a
// per-hop processing penalty, matching the well-known observation that
// RTT(ms) ≈ distance/(2/3 c) × inflation.
package geo

import (
	"fmt"
	"math"
	"time"
)

// EarthRadiusKm is the mean Earth radius.
const EarthRadiusKm = 6371.0

// Coord is a point on the Earth's surface.
type Coord struct {
	Lat float64 // degrees, positive north
	Lon float64 // degrees, positive east
}

func (c Coord) String() string {
	return fmt.Sprintf("(%.2f, %.2f)", c.Lat, c.Lon)
}

// Valid reports whether the coordinate is within range.
func (c Coord) Valid() bool {
	return c.Lat >= -90 && c.Lat <= 90 && c.Lon >= -180 && c.Lon <= 180 &&
		!math.IsNaN(c.Lat) && !math.IsNaN(c.Lon)
}

// DistanceKm returns the great-circle distance between two coordinates using
// the haversine formula.
func DistanceKm(a, b Coord) float64 {
	const degToRad = math.Pi / 180
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	// Each half-angle sine is computed once. The expression keeps the shape
	// of the textbook formula, so the result is bit-identical to it
	// (TestDistanceMatchesTextbookFormula).
	sLat, sLon := math.Sin(dLat/2), math.Sin(dLon/2)
	s := sLat*sLat +
		math.Cos(lat1)*math.Cos(lat2)*sLon*sLon
	// Clamp against floating-point drift before the square roots.
	if s > 1 {
		s = 1
	}
	return 2 * EarthRadiusKm * math.Atan2(math.Sqrt(s), math.Sqrt(1-s))
}

// LatencyModel converts distances and hop counts to one-way delays.
type LatencyModel struct {
	// SpeedKmPerMs is signal propagation speed. Light in fiber is roughly
	// 200 km/ms (2/3 of c in vacuum).
	SpeedKmPerMs float64
	// Inflation multiplies geodesic distance to account for non-great-circle
	// fiber paths. Typical measured values are 1.3–2.0.
	Inflation float64
	// PerHop is added per router hop (processing, serialization, queuing).
	PerHop time.Duration
	// Floor is the minimum one-way delay of any link (last-mile, tunneling).
	Floor time.Duration
}

// DefaultLatencyModel returns parameters calibrated so that intercontinental
// RTTs land in the 100–300 ms range the paper reports.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		SpeedKmPerMs: 200,
		Inflation:    1.6,
		PerHop:       250 * time.Microsecond,
		Floor:        300 * time.Microsecond,
	}
}

// OneWay returns the one-way delay over dist kilometers crossing hops routers.
func (m LatencyModel) OneWay(distKm float64, hops int) time.Duration {
	if distKm < 0 {
		distKm = 0
	}
	if hops < 0 {
		hops = 0
	}
	ms := distKm * m.Inflation / m.SpeedKmPerMs
	d := time.Duration(ms*float64(time.Millisecond)) + time.Duration(hops)*m.PerHop
	if d < m.Floor {
		d = m.Floor
	}
	return d
}

// LinkDelay returns the one-way delay of a direct link between two points.
func (m LatencyModel) LinkDelay(a, b Coord) time.Duration {
	return m.OneWay(DistanceKm(a, b), 1)
}

// RTT returns the round-trip time between two points across hops router hops,
// assuming a symmetric path.
func (m LatencyModel) RTT(a, b Coord, hops int) time.Duration {
	return 2 * m.OneWay(DistanceKm(a, b), hops)
}

// City is a named coordinate used by the topology generator to place ASes,
// PoPs, and anycast sites at plausible locations.
type City struct {
	Name string
	Coord
}

// Cities is a catalog of world cities covering every inhabited continent.
// The paper's Table 1 sites (Atlanta, Amsterdam, Los Angeles, Singapore,
// London, Tokyo, Osaka, Miami, Newark, Stockholm, Toronto, São Paulo,
// Chicago) are all present.
var Cities = []City{
	{"Atlanta", Coord{33.75, -84.39}},
	{"Amsterdam", Coord{52.37, 4.90}},
	{"Los Angeles", Coord{34.05, -118.24}},
	{"Singapore", Coord{1.35, 103.82}},
	{"London", Coord{51.51, -0.13}},
	{"Tokyo", Coord{35.68, 139.69}},
	{"Osaka", Coord{34.69, 135.50}},
	{"Miami", Coord{25.76, -80.19}},
	{"Newark", Coord{40.74, -74.17}},
	{"Stockholm", Coord{59.33, 18.07}},
	{"Toronto", Coord{43.65, -79.38}},
	{"Sao Paulo", Coord{-23.55, -46.63}},
	{"Chicago", Coord{41.88, -87.63}},
	{"New York", Coord{40.71, -74.01}},
	{"Frankfurt", Coord{50.11, 8.68}},
	{"Paris", Coord{48.86, 2.35}},
	{"Madrid", Coord{40.42, -3.70}},
	{"Milan", Coord{45.46, 9.19}},
	{"Warsaw", Coord{52.23, 21.01}},
	{"Moscow", Coord{55.76, 37.62}},
	{"Istanbul", Coord{41.01, 28.98}},
	{"Dubai", Coord{25.20, 55.27}},
	{"Mumbai", Coord{19.08, 72.88}},
	{"Delhi", Coord{28.61, 77.21}},
	{"Chennai", Coord{13.08, 80.27}},
	{"Bangkok", Coord{13.76, 100.50}},
	{"Jakarta", Coord{-6.21, 106.85}},
	{"Hong Kong", Coord{22.32, 114.17}},
	{"Taipei", Coord{25.03, 121.57}},
	{"Seoul", Coord{37.57, 126.98}},
	{"Sydney", Coord{-33.87, 151.21}},
	{"Melbourne", Coord{-37.81, 144.96}},
	{"Auckland", Coord{-36.85, 174.76}},
	{"Johannesburg", Coord{-26.20, 28.05}},
	{"Cairo", Coord{30.04, 31.24}},
	{"Lagos", Coord{6.52, 3.38}},
	{"Nairobi", Coord{-1.29, 36.82}},
	{"Buenos Aires", Coord{-34.60, -58.38}},
	{"Santiago", Coord{-33.45, -70.67}},
	{"Bogota", Coord{4.71, -74.07}},
	{"Lima", Coord{-12.05, -77.04}},
	{"Mexico City", Coord{19.43, -99.13}},
	{"Dallas", Coord{32.78, -96.80}},
	{"Denver", Coord{39.74, -104.99}},
	{"Seattle", Coord{47.61, -122.33}},
	{"San Jose", Coord{37.34, -121.89}},
	{"Ashburn", Coord{39.04, -77.49}},
	{"Boston", Coord{42.36, -71.06}},
	{"Vancouver", Coord{49.28, -123.12}},
	{"Montreal", Coord{45.50, -73.57}},
	{"Dublin", Coord{53.35, -6.26}},
	{"Zurich", Coord{47.37, 8.54}},
	{"Vienna", Coord{48.21, 16.37}},
	{"Oslo", Coord{59.91, 10.75}},
	{"Helsinki", Coord{60.17, 24.94}},
	{"Copenhagen", Coord{55.68, 12.57}},
	{"Brussels", Coord{50.85, 4.35}},
	{"Prague", Coord{50.08, 14.44}},
	{"Budapest", Coord{47.50, 19.04}},
	{"Bucharest", Coord{44.43, 26.10}},
	{"Athens", Coord{37.98, 23.73}},
	{"Lisbon", Coord{38.72, -9.14}},
	{"Tel Aviv", Coord{32.09, 34.78}},
	{"Riyadh", Coord{24.71, 46.68}},
	{"Karachi", Coord{24.86, 67.00}},
	{"Dhaka", Coord{23.81, 90.41}},
	{"Manila", Coord{14.60, 120.98}},
	{"Kuala Lumpur", Coord{3.14, 101.69}},
	{"Ho Chi Minh City", Coord{10.82, 106.63}},
	{"Perth", Coord{-31.95, 115.86}},
	{"Brisbane", Coord{-27.47, 153.03}},
	{"Cape Town", Coord{-33.92, 18.42}},
	{"Casablanca", Coord{33.57, -7.59}},
	{"Accra", Coord{5.60, -0.19}},
	{"Rio de Janeiro", Coord{-22.91, -43.17}},
	{"Caracas", Coord{10.48, -66.90}},
	{"Quito", Coord{-0.18, -78.47}},
	{"Panama City", Coord{8.98, -79.52}},
	{"Phoenix", Coord{33.45, -112.07}},
	{"Minneapolis", Coord{44.98, -93.27}},
	{"Kansas City", Coord{39.10, -94.58}},
	{"Salt Lake City", Coord{40.76, -111.89}},
	{"Portland", Coord{45.52, -122.68}},
	{"Houston", Coord{29.76, -95.37}},
	{"Calgary", Coord{51.05, -114.07}},
	{"Honolulu", Coord{21.31, -157.86}},
	{"Anchorage", Coord{61.22, -149.90}},
	{"Reykjavik", Coord{64.15, -21.94}},
	{"Edinburgh", Coord{55.95, -3.19}},
	{"Manchester", Coord{53.48, -2.24}},
	{"Marseille", Coord{43.30, 5.37}},
	{"Barcelona", Coord{41.39, 2.17}},
	{"Rome", Coord{41.90, 12.50}},
	{"Kyiv", Coord{50.45, 30.52}},
	{"Ankara", Coord{39.93, 32.86}},
	{"Doha", Coord{25.29, 51.53}},
	{"Muscat", Coord{23.59, 58.41}},
	{"Colombo", Coord{6.93, 79.85}},
	{"Kathmandu", Coord{27.72, 85.32}},
	{"Hanoi", Coord{21.03, 105.85}},
	{"Phnom Penh", Coord{11.56, 104.92}},
	{"Osorno", Coord{-40.57, -73.14}},
	{"Fortaleza", Coord{-3.73, -38.53}},
	{"Recife", Coord{-8.05, -34.88}},
	{"Montevideo", Coord{-34.90, -56.19}},
	{"La Paz", Coord{-16.49, -68.12}},
	{"Guatemala City", Coord{14.63, -90.51}},
	{"San Juan", Coord{18.47, -66.11}},
	{"Kingston", Coord{17.97, -76.79}},
	{"Havana", Coord{23.11, -82.37}},
	{"Tunis", Coord{36.81, 10.18}},
	{"Algiers", Coord{36.75, 3.06}},
	{"Addis Ababa", Coord{9.01, 38.75}},
	{"Dar es Salaam", Coord{-6.79, 39.21}},
	{"Kampala", Coord{0.35, 32.58}},
	{"Luanda", Coord{-8.84, 13.23}},
	{"Abuja", Coord{9.07, 7.40}},
	{"Dakar", Coord{14.72, -17.47}},
	{"Wellington", Coord{-41.29, 174.78}},
	{"Adelaide", Coord{-34.93, 138.60}},
	{"Christchurch", Coord{-43.53, 172.64}},
	{"Novosibirsk", Coord{55.01, 82.93}},
	{"Yekaterinburg", Coord{56.84, 60.61}},
	{"Almaty", Coord{43.22, 76.85}},
	{"Tashkent", Coord{41.30, 69.24}},
	{"Tbilisi", Coord{41.72, 44.83}},
	{"Baku", Coord{40.41, 49.87}},
	{"Tehran", Coord{35.69, 51.39}},
	{"Baghdad", Coord{33.31, 44.37}},
	{"Amman", Coord{31.96, 35.95}},
	{"Beirut", Coord{33.89, 35.50}},
}

// CityByName returns the catalog entry with the given name.
func CityByName(name string) (City, bool) {
	for _, c := range Cities {
		if c.Name == name {
			return c, true
		}
	}
	return City{}, false
}

// Region names returned by RegionOf.
var Regions = []string{"NorthAm", "SouthAm", "Europe", "Africa", "MidEast", "Asia", "Oceania"}

// RegionOf buckets a coordinate into one of seven coarse world regions, used
// for catchment breakdowns. The bands are deliberately simple — operators
// read these tables for orientation, not geodesy.
func RegionOf(c Coord) string {
	switch {
	case c.Lon >= -170 && c.Lon < -30:
		if c.Lat >= 13 {
			return "NorthAm"
		}
		return "SouthAm"
	case c.Lon >= -30 && c.Lon < 60:
		if c.Lat >= 35 {
			return "Europe"
		}
		if c.Lat >= 12 {
			return "MidEast"
		}
		return "Africa"
	default:
		if c.Lat < -8 {
			return "Oceania"
		}
		return "Asia"
	}
}
