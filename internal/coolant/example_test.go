package coolant_test

import (
	"fmt"

	"oftec/internal/coolant"
	"oftec/internal/units"
)

// ExampleAir evaluates the air actuator's two laws at the paper's
// reference speeds: cubic fan power (Equation (8)) and logarithmic sink
// conductance (Equation (9)).
func ExampleAir() {
	air := coolant.PaperAir()
	for _, rpm := range []float64{1000, 2000, 5000} {
		w := units.RPMToRadPerSec(rpm)
		fmt.Printf("%4.0f RPM: P_fan = %6.3f W, g_HS&fan = %.3f W/K\n",
			rpm, air.Power(w), air.Conductance(w))
	}
	// Output:
	// 1000 RPM: P_fan =  0.184 W, g_HS&fan = 4.262 W/K
	// 2000 RPM: P_fan =  1.470 W, g_HS&fan = 4.934 W/K
	// 5000 RPM: P_fan = 22.968 W, g_HS&fan = 5.823 W/K
}
