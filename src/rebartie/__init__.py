"""rebartie: training-free rebar-tying perception pipeline.

Stereo reconstruction -> parallel-plane detection -> plane mask ->
detection-label node localization -> base-frame tie sequencing -> socket
dispatch, with a synthetic-scene oracle and TCE/SAI metrics.
"""

__version__ = "0.1.0"
