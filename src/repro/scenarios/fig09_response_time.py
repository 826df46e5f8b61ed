"""Figure 9: agent <-> component response time.

Measures how quickly the agent exchanges data with each component class:
"fetching statistics from network devices (e.g. TUN, pNIC) costs about
2ms, and all other components' statistics collection can be completed in
500us".

The harness queries each element class many times through its channel
and reports the latency distribution per class, plus the
agent-controller RPC leg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.channels import CONTROLLER_CHANNEL
from repro.middleboxes.proxy import Proxy
from repro.scenarios.common import Harness

#: Figure 9's x-axis categories mapped to our element kinds.
COMPONENTS = {
    "Agent-Qemu": "qemu",
    "Agent-Backlog": "procfs",
    "Agent-VM": "middlebox",
    "Agent-pNIC": "netdev_pnic",
    "Agent-TUN": "netdev_tun",
    "Agent-Controller": "controller",
}


@dataclass
class Fig9Result:
    #: component label -> sorted latency samples, microseconds
    samples_us: Dict[str, List[float]]

    def median_us(self, component: str) -> float:
        s = self.samples_us[component]
        return s[len(s) // 2]

    def p99_us(self, component: str) -> float:
        s = self.samples_us[component]
        return s[min(len(s) - 1, int(len(s) * 0.99))]


def run(n_samples: int = 500, seed: int = 0) -> Fig9Result:
    h = Harness(seed=seed)
    machine = h.add_machine("m1")
    vm = machine.add_vm("vm0", vcpu_cores=1.0, vnic_bps=100e6)
    proxy = Proxy(h.sim, vm, "proxy0")
    h.register_app(proxy)
    agent = h.agents["m1"]

    targets = {
        "Agent-Qemu": f"qemu-rx-vm0@m1",
        "Agent-Backlog": f"backlog@m1",
        "Agent-VM": "proxy0",
        "Agent-pNIC": "pnic@m1",
        "Agent-TUN": "tun-vm0@m1",
    }
    samples: Dict[str, List[float]] = {label: [] for label in COMPONENTS}
    for _ in range(n_samples):
        for label, element_id in targets.items():
            _, latency = agent.channel(element_id).read_versioned(h.sim.now)
            samples[label].append(latency * 1e6)
        # The controller RPC leg has its own latency profile.
        mu_sample = _controller_latency(h)
        samples["Agent-Controller"].append(mu_sample * 1e6)
    for label in samples:
        samples[label].sort()
    return Fig9Result(samples_us=samples)


def _controller_latency(h: Harness) -> float:
    import math

    spec = CONTROLLER_CHANNEL
    mu = math.log(spec.median_latency_s)
    return h.sim.rng.lognormvariate(mu, spec.sigma)
