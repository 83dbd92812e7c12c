"""The STSM forecaster: training (§3.5, §4) and testing procedures.

Training (per epoch):

1. draw a mask over observed locations — selectively (§4.1) or randomly
   (§3.3) depending on the configuration;
2. replace masked columns with IDW pseudo-observations (Eq. 3);
3. rebuild the temporal-similarity adjacency ``A_dtw^train`` (the mask
   changed, §3.4.1);
4. minimise ``L = L_pred + λ L_cl`` (Eq. 18) over shuffled window batches,
   where ``L_pred`` is the MSE over the masked view's predictions (Eq. 14)
   and ``L_cl`` the NT-Xent loss between the original and masked views'
   graph representations (Eq. 17).

Early stopping monitors RMSE on the validation locations (treated as
masked, mirroring test conditions).

Training runs through the shared :class:`repro.engine.Trainer`: this
module only contributes the STSM-specific epoch body (mask redraw,
pseudo-observation fill, ``A_dtw^train`` rebuild, prediction +
contrastive loss) as a :class:`repro.engine.TrainingProgram`.  Two
engine caches make the per-epoch rebuild cheap without changing any
numbers: a mask-keyed memo of the normalised adjacency, and a per-pair
DTW memo so profiles untouched by the fresh mask never re-run the
dynamic program.  Both are views over one artifact store — the shared
one when opted in, else a private per-fit store.

Testing (§3.5): pseudo-observations fill the unobserved columns of the
full graph, ``A_dtw`` is rebuilt with observed→unobserved one-way edges,
and the trained network predicts the horizon for every requested window.
"""

from __future__ import annotations

import time

import numpy as np

from ..autograd import Tensor, no_grad
from ..data.dataset import SpatioTemporalDataset
from ..data.missing import check_finite_observations
from ..data.scalers import StandardScaler
from ..data.splits import SpaceSplit
from ..data.windows import WindowSpec, check_window_starts, gather_windows, iterate_batches
from ..engine import (
    ArtifactStore,
    EarlyStopping,
    PairwiseDTWCache,
    Trainer,
    TrainingProgram,
    active_store,
    array_key,
)
from ..graph.adjacency import gaussian_kernel_adjacency, gcn_normalise
from ..graph.distances import euclidean_distance_matrix
from ..interfaces import FitReport, Forecaster
from ..nn import mse_loss, nt_xent_loss
from ..optim import Adam
from ..temporal import build_dtw_adjacency, normalised_time_encoding
from .config import STSMConfig
from .features import compute_subgraph_similarity
from .masking import SelectiveMasker, random_subgraph_mask
from .multiregion import multi_region_similarity
from .network import STSMNetwork
from .pseudo import fill_pseudo_observations

__all__ = ["STSMForecaster", "compute_distance_matrices"]

#: Memory-tier capacities of the private store an isolated fit (no
#: shared store) keeps its DTW pairs and masked adjacencies in.
PRIVATE_STORE_MAXSIZE = {"dtw_pair": 65536, "mask_fill": 64}


def _cache_store(shared: ArtifactStore | None) -> ArtifactStore:
    """The store a fit's caches view: ``shared``, else a private one."""
    return shared if shared is not None else ArtifactStore(maxsize=PRIVATE_STORE_MAXSIZE)


def compute_distance_matrices(
    dataset: SpatioTemporalDataset, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Distance matrices for (adjacency construction, pseudo-observations).

    ``mode`` follows Table 11: ``"euclidean"`` uses Euclidean for both,
    ``"road_adj_only"`` (STSM-rd-m) uses road distances for the adjacency
    matrices only, ``"road_all"`` (STSM-rd-a) for both.
    """
    euclidean = euclidean_distance_matrix(dataset.coords)
    if mode == "euclidean":
        return euclidean, euclidean
    if dataset.road_network is None:
        raise ValueError(f"distance mode {mode!r} requires a road network on the dataset")
    road = dataset.road_network.shortest_path_distance_matrix(dataset.coords)
    finite = road[np.isfinite(road)]
    ceiling = (finite.max() if finite.size else 1.0) * 2.0
    road = np.where(np.isfinite(road), road, ceiling)
    if mode == "road_adj_only":
        return road, euclidean
    if mode == "road_all":
        return road, road
    raise ValueError(f"unknown distance mode {mode!r}")


class _STSMProgram(TrainingProgram):
    """STSM's per-epoch body, driven by the shared :class:`Trainer`.

    ``on_epoch_start`` draws the mask and rebuilds the masked view
    (pseudo-fill + ``A_dtw^train``) — memoised by mask content so a
    repeated draw costs a cache lookup; ``compute_loss`` evaluates the
    prediction (+ contrastive) objective on one shuffled window batch.
    """

    def __init__(
        self,
        forecaster: "STSMForecaster",
        draw_mask,
        scaled_obs: np.ndarray,
        dist_obs: np.ndarray,
        train_steps: np.ndarray,
        starts: np.ndarray,
        a_s_train_t: Tensor,
        a_dtw_orig_t: Tensor,
        val_filled: np.ndarray,
        val_starts: np.ndarray,
        val_local: np.ndarray,
        a_dtw_val_t: Tensor,
    ) -> None:
        self.forecaster = forecaster
        self.network = forecaster.network
        cfg = forecaster.config
        self.cfg = cfg
        self.optimiser = Adam(self.network.parameters(), lr=cfg.learning_rate)
        self.grad_clip = cfg.grad_clip
        self.draw_mask = draw_mask
        self.scaled_obs = scaled_obs
        self.dist_obs = dist_obs
        self.train_steps = train_steps
        self.starts = starts
        self.a_s_train_t = a_s_train_t
        self.a_dtw_orig_t = a_dtw_orig_t
        self.val_filled = val_filled
        self.val_starts = val_starts
        self.val_local = val_local
        self.a_dtw_val_t = a_dtw_val_t
        # Per-epoch masked view, set by on_epoch_start.
        self.filled: np.ndarray | None = None
        self.a_dtw_train_t: Tensor | None = None

    def on_epoch_start(self, epoch: int, rng: np.random.Generator | None) -> None:
        cfg = self.cfg
        n_obs = self.scaled_obs.shape[1]
        mask_local = self.draw_mask(rng)
        source_local = np.setdiff1d(np.arange(n_obs), mask_local)
        # The IDW fill is cheap and deterministic per mask; recompute it
        # every epoch so the mask cache holds only the small
        # (n_obs, n_obs) adjacency, not T x N_o fill matrices.
        self.filled = fill_pseudo_observations(
            self.scaled_obs,
            self.dist_obs,
            target_index=mask_local,
            source_index=source_local,
            k=cfg.pseudo_k,
        )
        a_dtw_norm = self.forecaster._mask_cache.get_or_compute(
            array_key(mask_local),
            lambda: self.forecaster._dtw_adjacency(
                self.filled[self.train_steps], source_local, mask_local
            ),
        )
        self.a_dtw_train_t = Tensor(a_dtw_norm)

    def batches(self, epoch: int, rng: np.random.Generator | None):
        return iterate_batches(
            self.starts, self.cfg.batch_size, rng=rng, drop_last=self.cfg.contrastive
        )

    def compute_loss(self, batch: np.ndarray, rng: np.random.Generator | None):
        forecaster = self.forecaster
        cfg = self.cfg
        spec = forecaster.spec
        # The full-length arrays' rows are time steps.
        steps = batch + int(self.train_steps[0])
        x_masked, te = forecaster._inputs(self.filled, steps, 0)
        y = gather_windows(self.scaled_obs, steps + spec.input_length, spec.horizon)
        predictions, z_masked = self.network(x_masked, te, self.a_s_train_t, self.a_dtw_train_t)
        loss = mse_loss(predictions, Tensor(y[..., None]))
        if cfg.contrastive and len(batch) >= 2:
            x_orig, _ = forecaster._inputs(self.scaled_obs, steps, 0)
            _, z_orig = self.network(x_orig, te, self.a_s_train_t, self.a_dtw_orig_t)
            loss = loss + cfg.contrastive_weight * nt_xent_loss(
                z_orig, z_masked, temperature=cfg.temperature
            )
        return loss

    def validation_score(self, epoch: int) -> float:
        """RMSE on the validation locations, forecast as if unobserved."""
        if len(self.val_local) == 0 or len(self.val_starts) == 0:
            return float("nan")
        forecaster = self.forecaster
        spec = forecaster.spec
        first = int(self.train_steps[0])
        self.network.eval()
        # val_filled is already restricted to the training steps.
        pred = forecaster._forecast(
            self.val_filled, self.val_starts, first,
            self.a_s_train_t, self.a_dtw_val_t, self.val_local,
        )
        truth = gather_windows(
            forecaster._scaled_full, first + self.val_starts + spec.input_length, spec.horizon
        )[:, :, forecaster.split.observed[self.val_local]]
        return float(np.sqrt(((pred - truth) ** 2).ravel().mean()))


class STSMForecaster(Forecaster):
    """STSM and its ablation variants behind the common interface.

    The configuration toggles select the paper's variants; see
    :mod:`repro.core.variants` for ready-made constructors.
    """

    def __init__(self, config: STSMConfig | None = None, name: str = "STSM") -> None:
        self.config = config if config is not None else STSMConfig()
        self.config.validate()
        self.name = name
        self.network: STSMNetwork | None = None
        self._fitted = False

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: SpatioTemporalDataset,
        split: SpaceSplit,
        spec: WindowSpec,
        train_steps: np.ndarray,
        *,
        warm_start_dir=None,
        warm_start_state=None,
        checkpoint_dir=None,
    ) -> FitReport:
        """Train STSM on the observed locations' ``train_steps``.

        ``warm_start_dir`` seeds the optimisation from a PR 2 best-epoch
        checkpoint directory via :meth:`~repro.engine.Trainer.restore`
        (a missing/unreadable checkpoint degrades to a cold start);
        ``warm_start_state`` seeds it from an in-memory state dict
        directly (mutually exclusive with ``warm_start_dir``).  Because
        the network's own initialisation is fully determined by
        ``config.seed`` and loading either source overwrites every
        parameter, two fits seeded from the same weights follow
        bit-identical trajectories regardless of which path loaded them.
        ``checkpoint_dir`` persists this fit's best epoch for later
        warm starts (see :class:`~repro.engine.EarlyStopping`).
        """
        if warm_start_dir is not None and warm_start_state is not None:
            raise ValueError("pass warm_start_dir or warm_start_state, not both")
        started = time.perf_counter()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        self.dataset = dataset
        self.split = split
        self.spec = spec
        observed = split.observed
        unobserved = split.unobserved
        n_obs = len(observed)
        if n_obs < 3:
            raise ValueError("need at least 3 observed locations to train STSM")

        # --- static geometry -------------------------------------------------
        dist_adj, dist_pseudo = compute_distance_matrices(dataset, cfg.distance_mode)
        self._dist_pseudo = dist_pseudo
        off_diagonal = dist_adj[~np.eye(len(dist_adj), dtype=bool)]
        sigma = max(float(off_diagonal.std()) * cfg.sigma_scale, 1e-9)
        a_s_full = gaussian_kernel_adjacency(dist_adj, threshold=cfg.epsilon_s, sigma=sigma)
        a_sg_full = gaussian_kernel_adjacency(dist_adj, threshold=cfg.epsilon_sg, sigma=sigma)
        self._a_s_full = a_s_full
        obs_ix = np.ix_(observed, observed)
        a_s_train = a_s_full[obs_ix]
        a_sg_train = a_sg_full[obs_ix]

        # --- scaling ---------------------------------------------------------
        train_values_raw = dataset.values[train_steps][:, observed]
        check_finite_observations(train_values_raw, observed)
        self.scaler = StandardScaler().fit(train_values_raw)
        scaled_full = self.scaler.transform(dataset.values)
        self._scaled_full = scaled_full
        scaled_obs_train = scaled_full[np.ix_(train_steps, observed)]

        # --- masking strategy -------------------------------------------------
        if cfg.selective_masking:
            if cfg.num_unobserved_regions > 1:
                similarity = multi_region_similarity(
                    dataset.features, dataset.coords, a_sg_full,
                    observed, unobserved, cfg.num_unobserved_regions,
                )
            else:
                similarity = compute_subgraph_similarity(
                    dataset.features, dataset.coords, a_sg_full, observed, unobserved
                )
            masker = SelectiveMasker(
                similarity, a_sg_train, cfg.mask_ratio, top_k=cfg.top_k
            )
            self.masking_probabilities = masker.probabilities
            draw_mask = masker.draw
        else:
            self.masking_probabilities = None
            draw_mask = lambda rng_: random_subgraph_mask(a_sg_train, cfg.mask_ratio, rng_)  # noqa: E731

        # --- network ----------------------------------------------------------
        self.network = STSMNetwork(cfg, horizon=spec.horizon, input_length=spec.input_length)

        # --- engine caches (per-fit by default, shared store on opt-in) --------
        # A shared store makes every DTW pair and masked adjacency
        # computed here visible to later fits (and, with a disk tier,
        # later processes); hits are bit-exact, so numbers never change.
        shared = active_store(cfg.cache_store)
        store = _cache_store(shared)
        self._dtw_cache = PairwiseDTWCache(store)
        # The masked adjacency is pure in (observations, distances,
        # training period, fill/graph hyper-parameters, mask); the
        # per-epoch lookup keys only the mask, so everything else is
        # folded into the view's scope to stay content-addressed across
        # fits.
        mask_scope = array_key(
            "mask_fill/v1",
            scaled_full[:, observed],
            dist_pseudo[obs_ix],
            train_steps,
            dataset.steps_per_day,
            cfg.pseudo_k,
            cfg.q_kk,
            cfg.q_ku,
            cfg.dtw_resolution,
        )
        self._mask_cache = store.view("mask_fill", scope=mask_scope)

        # --- static adjacency for the original (complete) view -----------------
        a_s_train_t = Tensor(gcn_normalise(a_s_train))
        a_dtw_orig_t = Tensor(self._dtw_adjacency(scaled_obs_train, np.arange(n_obs), None))

        # --- training windows ---------------------------------------------------
        usable = len(train_steps) - spec.total
        if usable < 1:
            raise ValueError(
                f"training period of {len(train_steps)} steps cannot fit a "
                f"{spec.total}-step window"
            )
        starts = np.arange(0, usable + 1, cfg.window_stride)

        # --- validation setup: mask the validation locations -------------------
        val_local = np.searchsorted(observed, split.validation)
        train_local = np.searchsorted(observed, split.train)
        val_filled = fill_pseudo_observations(
            scaled_full[train_steps][:, observed],
            dist_pseudo[obs_ix],
            target_index=val_local,
            source_index=train_local,
            k=cfg.pseudo_k,
        )
        a_dtw_val_t = Tensor(self._dtw_adjacency(val_filled, train_local, val_local))
        val_stride = max(1, (usable + 1) // 16)
        val_starts = np.arange(0, usable + 1, val_stride)

        # --- shared engine: trainer ------------------------------------------
        program = _STSMProgram(
            self,
            draw_mask,
            scaled_obs=scaled_full[:, observed],
            dist_obs=dist_pseudo[obs_ix],
            train_steps=train_steps,
            starts=starts,
            a_s_train_t=a_s_train_t,
            a_dtw_orig_t=a_dtw_orig_t,
            val_filled=val_filled,
            val_starts=val_starts,
            val_local=val_local,
            a_dtw_val_t=a_dtw_val_t,
        )
        early_stopping = EarlyStopping(patience=cfg.patience, checkpoint_dir=checkpoint_dir)
        trainer = Trainer(
            program,
            max_epochs=cfg.epochs,
            rng=rng,
            early_stopping=early_stopping,
            store=shared,
        )
        self.warm_started = False
        if warm_start_dir is not None:
            self.warm_started = trainer.restore(warm_start_dir)
        elif warm_start_state is not None:
            program.load_state_dict(warm_start_state)
            self.warm_started = True
        history = trainer.fit()

        self._fitted = True
        self._prepare_test_graph()
        if shared is not None:
            shared.persist()  # test-graph pairs computed after the trainer's flush
        return FitReport(
            train_seconds=time.perf_counter() - started,
            epochs=history.epochs,
            history=list(history.train_losses),
            extra={
                "best_val_rmse": float(early_stopping.best_score),
                "warm_started": self.warm_started,
            },
        )

    # ------------------------------------------------------------------
    # Shared by training, validation and testing
    # ------------------------------------------------------------------
    def _dtw_adjacency(
        self, values: np.ndarray, observed_index: np.ndarray, target_index: np.ndarray | None
    ) -> np.ndarray:
        """Normalised ``A_dtw`` over the columns of ``values`` (§3.4.1)."""
        cfg = self.config
        adjacency = build_dtw_adjacency(
            values,
            observed_index=observed_index,
            target_index=target_index,
            steps_per_day=self.dataset.steps_per_day,
            num_nodes=values.shape[1],
            q_kk=cfg.q_kk,
            q_ku=cfg.q_ku,
            resolution=cfg.dtw_resolution,
            distance_fn=self._dtw_cache.distance_matrix,
        )
        return gcn_normalise(adjacency)

    def _inputs(
        self, values: np.ndarray, starts: np.ndarray, first_step: int
    ) -> tuple[Tensor, Tensor]:
        """Network inputs ``(x, te)`` for the windows of ``values`` (whose
        row 0 is time step ``first_step``) that begin at rows ``starts``."""
        steps_per_day = self.dataset.steps_per_day
        length = self.spec.input_length
        starts = np.asarray(starts, dtype=int)
        ids = (first_step + starts[:, None] + np.arange(length)) % steps_per_day
        x = Tensor(gather_windows(values, starts, length)[..., None])
        te = Tensor(normalised_time_encoding(ids, steps_per_day)[..., None])
        return x, te

    def _forecast(
        self,
        values: np.ndarray,
        starts: np.ndarray,
        first_step: int,
        a_s: Tensor,
        a_dtw: Tensor,
        columns: np.ndarray,
    ) -> np.ndarray:
        """Scaled forecasts ``(windows, T', len(columns))`` of ``columns``,
        one no-grad forward per batch of starts (see :meth:`_inputs`)."""
        batch_size = self.config.batch_size
        outputs = []
        with no_grad():
            for begin in range(0, len(starts), batch_size):
                x, te = self._inputs(values, starts[begin : begin + batch_size], first_step)
                predictions, _z = self.network(x, te, a_s, a_dtw)
                outputs.append(predictions.numpy()[..., 0][:, :, columns])
        return np.concatenate(outputs, axis=0)

    # ------------------------------------------------------------------
    # Testing (§3.5)
    # ------------------------------------------------------------------
    def _prepare_test_graph(self) -> None:
        """Precompute the full-graph adjacencies used at prediction time."""
        cfg = self.config
        dataset = self.dataset
        observed = self.split.observed
        unobserved = self.split.unobserved
        # The fill and the test DTW read every observed step, so one
        # non-finite reading, even outside the training steps fit checks,
        # would make every forecast NaN: predict() refuses instead.
        self._history_finite = bool(np.isfinite(dataset.values[:, observed]).all())
        filled = fill_pseudo_observations(
            self._scaled_full,
            self._dist_pseudo,
            target_index=unobserved,
            source_index=observed,
            k=cfg.pseudo_k,
        )
        self._filled_full = filled
        if getattr(self, "_dtw_cache", None) is None:
            # Checkpoint-restore path (no fit): a shared store lets a
            # warmed disk tier skip the test-graph dynamic programs.
            self._dtw_cache = PairwiseDTWCache(_cache_store(active_store(cfg.cache_store)))
        self._a_s_test_t = Tensor(gcn_normalise(self._a_s_full))
        self._a_dtw_test_t = Tensor(self._dtw_adjacency(filled, observed, unobserved))

    def predict(self, window_starts: np.ndarray, stochastic: bool = False) -> np.ndarray:
        """Forecast the unobserved region (§3.5 testing procedure).

        With ``stochastic=True`` the dropout layers stay active, producing
        one Monte-Carlo sample per call — the mechanism used by
        :class:`~repro.core.uncertainty.MCDropoutForecaster`.
        """
        if not self._fitted or self.network is None:
            raise RuntimeError("predict() called before fit()")
        check_window_starts(window_starts, self.dataset.num_steps, self.spec)
        if not self._history_finite:
            observed = self.split.observed
            check_finite_observations(self.dataset.values[:, observed], observed, "history")
        unobserved = self.split.unobserved
        if len(window_starts) == 0:
            return np.empty((0, self.spec.horizon, len(unobserved)))
        self.network.train(stochastic)
        scaled = self._forecast(
            self._filled_full, np.asarray(window_starts), 0,
            self._a_s_test_t, self._a_dtw_test_t, unobserved,
        )
        return self.scaler.inverse_transform(scaled)
