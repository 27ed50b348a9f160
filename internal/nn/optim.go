package nn

// SGD is stochastic gradient descent with classical momentum and optional L2
// weight decay, matching the paper's training setup ("Networks were trained
// using the SGD optimizer", §III).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param][]float32
}

// NewSGD constructs an optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*Param][]float32)}
}

// Step applies one update to every parameter from its accumulated gradient.
// Gradients are not cleared; call Sequential.ZeroGrad before the next batch.
func (o *SGD) Step(params []*Param) {
	lr := float32(o.LR)
	mu := float32(o.Momentum)
	wd := float32(o.WeightDecay)
	for _, p := range params {
		v := o.velocity[p]
		if v == nil {
			v = make([]float32, len(p.W))
			o.velocity[p] = v
		}
		for i := range p.W {
			g := p.G[i]
			if wd != 0 {
				g += wd * p.W[i]
			}
			v[i] = mu*v[i] - lr*g
			p.W[i] += v[i]
		}
	}
}

// Reset clears momentum state (used when reusing an optimizer across
// training phases, e.g. QAT fine-tuning after FP32 training).
func (o *SGD) Reset() { o.velocity = make(map[*Param][]float32) }
