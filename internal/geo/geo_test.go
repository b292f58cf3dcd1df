package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDistanceKnownPairs(t *testing.T) {
	// Reference great-circle distances (±2% tolerance).
	cases := []struct {
		a, b   string
		wantKm float64
	}{
		{"London", "New York", 5570},
		{"Tokyo", "Osaka", 400},
		{"Singapore", "London", 10850},
		{"Los Angeles", "Tokyo", 8815},
		{"Sao Paulo", "Miami", 6570},
		{"Amsterdam", "Stockholm", 1130},
	}
	for _, c := range cases {
		a, ok := CityByName(c.a)
		if !ok {
			t.Fatalf("city %q missing", c.a)
		}
		b, ok := CityByName(c.b)
		if !ok {
			t.Fatalf("city %q missing", c.b)
		}
		got := DistanceKm(a.Coord, b.Coord)
		if math.Abs(got-c.wantKm)/c.wantKm > 0.02 {
			t.Errorf("Distance(%s, %s) = %.0f km, want ≈%.0f km", c.a, c.b, got, c.wantKm)
		}
	}
}

func TestDistanceZero(t *testing.T) {
	p := Coord{33.75, -84.39}
	if d := DistanceKm(p, p); d != 0 {
		t.Errorf("Distance(p, p) = %v, want 0", d)
	}
}

func TestDistanceAntipodal(t *testing.T) {
	a := Coord{0, 0}
	b := Coord{0, 180}
	want := math.Pi * EarthRadiusKm
	if d := DistanceKm(a, b); math.Abs(d-want) > 1 {
		t.Errorf("antipodal distance = %.1f, want %.1f", d, want)
	}
}

func TestPropertyDistanceSymmetricNonnegative(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := Coord{math.Mod(lat2, 90), math.Mod(lon2, 180)}
		if math.IsNaN(a.Lat) || math.IsNaN(a.Lon) || math.IsNaN(b.Lat) || math.IsNaN(b.Lon) {
			return true
		}
		d1 := DistanceKm(a, b)
		d2 := DistanceKm(b, a)
		return d1 >= 0 && math.Abs(d1-d2) < 1e-6 && d1 <= math.Pi*EarthRadiusKm+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// textbookDistanceKm is the haversine as first written, with four sine
// calls. DistanceKm must reproduce it bit for bit: topology generation,
// link delays and the BGP interior-cost buckets are all pinned downstream.
func textbookDistanceKm(a, b Coord) float64 {
	const degToRad = math.Pi / 180
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	if s > 1 {
		s = 1
	}
	return 2 * EarthRadiusKm * math.Atan2(math.Sqrt(s), math.Sqrt(1-s))
}

func TestDistanceMatchesTextbookFormula(t *testing.T) {
	check := func(a, b Coord) {
		t.Helper()
		if got, want := DistanceKm(a, b), textbookDistanceKm(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DistanceKm(%v, %v) = %v (%#x), textbook %v (%#x)",
				a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, x := range Cities {
		for _, y := range Cities {
			check(x.Coord, y.Coord)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		a := Coord{rng.Float64()*180 - 90, rng.Float64()*360 - 180}
		b := Coord{rng.Float64()*180 - 90, rng.Float64()*360 - 180}
		check(a, b)
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 int16) bool {
		a := Coord{float64(lat1 % 90), float64(lon1 % 180)}
		b := Coord{float64(lat2 % 90), float64(lon2 % 180)}
		c := Coord{float64(lat3 % 90), float64(lon3 % 180)}
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyModelOneWay(t *testing.T) {
	m := DefaultLatencyModel()
	// 200 km at 200 km/ms with 1.6 inflation = 1.6 ms + 1 hop penalty.
	got := m.OneWay(200, 1)
	want := 1600*time.Microsecond + m.PerHop
	if got != want {
		t.Errorf("OneWay(200, 1) = %v, want %v", got, want)
	}
}

func TestLatencyModelFloor(t *testing.T) {
	m := DefaultLatencyModel()
	if got := m.OneWay(0, 0); got != m.Floor {
		t.Errorf("OneWay(0,0) = %v, want floor %v", got, m.Floor)
	}
}

func TestLatencyModelNegativeInputsClamped(t *testing.T) {
	m := DefaultLatencyModel()
	if got := m.OneWay(-10, -5); got != m.Floor {
		t.Errorf("OneWay(-10,-5) = %v, want floor %v", got, m.Floor)
	}
}

func TestRTTSymmetricAndDouble(t *testing.T) {
	m := DefaultLatencyModel()
	ams, _ := CityByName("Amsterdam")
	nyc, _ := CityByName("New York")
	rtt := m.RTT(ams.Coord, nyc.Coord, 10)
	if rtt != m.RTT(nyc.Coord, ams.Coord, 10) {
		t.Error("RTT not symmetric")
	}
	if rtt != 2*m.OneWay(DistanceKm(ams.Coord, nyc.Coord), 10) {
		t.Error("RTT != 2 × OneWay")
	}
	// Transatlantic RTT should be plausible: 40–120 ms.
	if rtt < 40*time.Millisecond || rtt > 120*time.Millisecond {
		t.Errorf("AMS–NYC RTT = %v, outside plausible [40ms, 120ms]", rtt)
	}
}

func TestCityCatalog(t *testing.T) {
	// Table 1 site cities must all exist and be valid.
	table1 := []string{
		"Atlanta", "Amsterdam", "Los Angeles", "Singapore", "London",
		"Tokyo", "Osaka", "Miami", "Newark", "Stockholm", "Toronto",
		"Sao Paulo", "Chicago",
	}
	for _, name := range table1 {
		c, ok := CityByName(name)
		if !ok {
			t.Errorf("Table 1 city %q missing from catalog", name)
			continue
		}
		if !c.Valid() {
			t.Errorf("city %q has invalid coordinate %v", name, c.Coord)
		}
	}
	seen := map[string]bool{}
	for _, c := range Cities {
		if seen[c.Name] {
			t.Errorf("duplicate city %q", c.Name)
		}
		seen[c.Name] = true
		if !c.Valid() {
			t.Errorf("city %q invalid coordinate %v", c.Name, c.Coord)
		}
	}
	if len(Cities) < 100 {
		t.Errorf("catalog has %d cities, want >=100 for topology diversity", len(Cities))
	}
}

func TestCityByNameMissing(t *testing.T) {
	if _, ok := CityByName("Atlantis"); ok {
		t.Error("CityByName returned ok for unknown city")
	}
}

func TestCoordValid(t *testing.T) {
	cases := []struct {
		c    Coord
		want bool
	}{
		{Coord{0, 0}, true},
		{Coord{90, 180}, true},
		{Coord{-90, -180}, true},
		{Coord{91, 0}, false},
		{Coord{0, 181}, false},
		{Coord{math.NaN(), 0}, false},
	}
	for _, c := range cases {
		if got := c.c.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.c, got, c.want)
		}
	}
}

func BenchmarkDistance(b *testing.B) {
	a := Coord{33.75, -84.39}
	c := Coord{1.35, 103.82}
	for i := 0; i < b.N; i++ {
		DistanceKm(a, c)
	}
}

func TestRegionOf(t *testing.T) {
	cases := map[string]string{
		"Chicago":      "NorthAm",
		"Sao Paulo":    "SouthAm",
		"Amsterdam":    "Europe",
		"Lagos":        "Africa",
		"Dubai":        "MidEast",
		"Tokyo":        "Asia",
		"Sydney":       "Oceania",
		"Johannesburg": "Africa",
		"Reykjavik":    "Europe",
	}
	for city, want := range cases {
		c, ok := CityByName(city)
		if !ok {
			t.Fatalf("city %q missing", city)
		}
		if got := RegionOf(c.Coord); got != want {
			t.Errorf("RegionOf(%s) = %s, want %s", city, got, want)
		}
	}
	// Every catalog city maps to a declared region.
	valid := map[string]bool{}
	for _, r := range Regions {
		valid[r] = true
	}
	for _, c := range Cities {
		if !valid[RegionOf(c.Coord)] {
			t.Errorf("city %s maps to undeclared region %q", c.Name, RegionOf(c.Coord))
		}
	}
}
