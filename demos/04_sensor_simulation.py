# The physics layer: blackbody illuminants, virtual cameras, and the
# cross-camera augmentation that manufactures training data.
#
# Training needs (image, illuminant) pairs in many camera spaces.  Instead
# of shipping real raw captures, this package renders blackbody radiators
# through camera color space transforms.  A capture from camera A can then
# be re-rendered as if camera B had taken it under one of B's own lights,
# which is where the cross-camera training set comes from.

import numpy as np

from chromacc import (CMFTable, estimate_cct, make_synthetic_camera,
                      planck_spd, temp_to_xyz)
from chromacc.sensor import (AugmentTarget, augment_image, raw_to_xyz,
                             xyz_to_target_raw)
from chromacc.synthbench import capture, render_scene

cmf = CMFTable.load()

# ----- the Planckian locus ----------------------------------------------------

# spectral power peaks shift blueward as the radiator heats up
lam = 560e-9
for q in (2500.0, 5000.0, 7500.0):
    x, y, _ = temp_to_xyz(q, cmf)
    print(f"{q:6.0f} K  S(560nm) = {planck_spd(q, lam):.4g}   "
          f"xy = ({x:.4f}, {y:.4f})")

# ----- a virtual camera -------------------------------------------------------

rng = np.random.default_rng(42)
profile, metas = make_synthetic_camera(rng, tint=0.15, perturbation=0.04,
                                       name="demo_cam")
ills = np.stack([m.illuminant for m in metas])
print("\ncamera", profile.name, "with", len(metas), "illuminants")
print("illuminant red component range: %.3f .. %.3f"
      % (ills[:, 0].min(), ills[:, 0].max()))

# estimate_cct inverts the rendering: given only the raw illuminant it
# recovers the temperature by sweeping the profile's interpolated CSTs
errs = []
for meta in metas[:10]:
    q_hat, _ = estimate_cct(meta.illuminant, profile, cmf)
    errs.append(q_hat)
print("recovered CCTs for 10 lights:", np.round(errs, -1))

# ----- re-rendering between cameras -------------------------------------------

profile_b, metas_b = make_synthetic_camera(rng, tint=0.15, perturbation=0.04,
                                           name="other_cam")
target = AugmentTarget.build(profile_b, metas_b, cmf)

scene = render_scene(rng)                       # reflectance, camera-free
src = capture(scene, metas[0].illuminant)       # camera A raw image
out, j = augment_image(src, metas[0], profile, target, cmf, rng, crop=False)
print("\nre-rendered", src.pixels.shape, "capture into", profile_b.name)
print("sampled target illuminant:", np.round(j, 4))

# the round trip through XYZ is near-exact when source and target agree:
# white-balance and CST in, the inverse chain back out
xyz, q = raw_to_xyz(src, metas[0].illuminant, profile, cmf)
back = xyz_to_target_raw(xyz, metas[0].illuminant, profile, q)
print("identity re-render max |diff|: %.3g"
      % np.abs(back - src.pixels).max())

# sanity check on the physics: the augmented image really is lit by j.
# dividing j out per channel must leave an illuminant-free image, so its
# channel means should match a neutral render of the same reflectance up
# to one global brightness factor: equal ratios = illuminant removed.
neutral = xyz_to_target_raw(xyz, np.ones(3) / np.sqrt(3.0), profile_b, q)
balanced = out.pixels / j
ratio = balanced.mean(axis=(0, 1)) / neutral.mean(axis=(0, 1))
print("per-channel mean ratio after dividing j out:", np.round(ratio, 3))
print("equal across channels:", np.allclose(ratio, ratio[0], rtol=1e-12))
