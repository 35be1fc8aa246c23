"""Video-conferencing application models.

Each of the paper's three VCAs is modelled as a *profile* -- a bundle of
encoder architecture, congestion controller, media-server behaviour and
client quirks -- plugged into a common client (:class:`~repro.vca.base.VCAClient`),
media-server (:class:`~repro.vca.sfu.node.MediaServer`) and call
(:class:`~repro.vca.call.Call`) machinery:

========  =====================  ==========================  =========================
VCA       Encoder                Congestion control          Server behaviour
========  =====================  ==========================  =========================
Zoom      SVC layers             FEC-probing (FBRA-like)     SVC layer relay + FEC
Meet      Simulcast copies       GCC (WebRTC)                SFU copy selection
Teams     Single stream          Conservative slow-ramp      Plain relay (no adaptation)
========  =====================  ==========================  =========================

Browser variants (Teams-Chrome, Zoom-Chrome) reuse the same machinery with
the parameter differences the paper measures (Section 3.1/3.2).
"""

from repro.vca.base import VCAClient, VCAProfile
from repro.vca.call import Call, CallConfig
from repro.vca.chrome import teams_chrome_profile, zoom_chrome_profile
from repro.vca.meet import meet_profile
from repro.vca.registry import PROFILE_FACTORIES, get_profile, register_profile
from repro.vca.sfu import MediaServer
from repro.vca.teams import teams_profile
from repro.vca.zoom import zoom_profile

__all__ = [
    "VCAClient",
    "VCAProfile",
    "MediaServer",
    "Call",
    "CallConfig",
    "zoom_profile",
    "meet_profile",
    "teams_profile",
    "teams_chrome_profile",
    "zoom_chrome_profile",
    "get_profile",
    "register_profile",
    "PROFILE_FACTORIES",
]
