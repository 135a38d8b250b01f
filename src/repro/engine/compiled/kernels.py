"""Array-state per-record kernels for the reference-path families.

Each kernel advances one predictor over one chunk of records, reading
and mutating *flat numpy state* only — scalars travel in a small
``regs`` int64 array so the same function signature works interpreted
and as a ctypes-loaded C routine.  The bodies transcribe
the stateful predictors in :mod:`repro.predictors` operation for
operation; any divergence is a bug (pinned by
``tests/test_engine_backend.py`` against the reference engine).

Conventions shared by every kernel:

* ``pcs`` int64, ``outcomes``/``predictions`` uint8 (1 = taken);
* ``regs`` int64 scalar registers (layout documented per kernel);
* ``params`` int64 read-only geometry (masks, widths, thresholds);
* counters are uint8 saturating at documented bounds;
* history registers shift LSB = most recent, exactly like
  :class:`repro.predictors.history.HistoryRegister`.

The code style is deliberately C-like (indexed loops, no comprehensions,
no dict/set/object use), so the C mirror in :mod:`.cext` stays a
line-for-line transliteration.
"""

from __future__ import annotations

# -- register/param layouts (shared with .cext) ------------------------------

#: ``regs`` slots of :func:`yags_step` / :func:`bimode_step`.
HIST = 0

#: ``regs`` slots of :func:`dhlf_step`.
DHLF_GHR = 0
DHLF_LENGTH = 1
DHLF_INTERVAL_MISSES = 2
DHLF_INTERVAL_COUNT = 3
DHLF_EXPLOIT_REMAINING = 4
DHLF_NEXT_EXPLORE = 5
DHLF_REGS = 6


def yags_step(pcs, outcomes, predictions, regs, params, choice, t_tags, t_valid, t_ctr, nt_tags, nt_valid, nt_ctr):
    """One chunk of :class:`~repro.predictors.yags.YagsPredictor`.

    ``regs = [history]``; ``params = [hist_mask, cache_mask,
    choice_mask, tag_mask]``.  The caches' counters saturate at [0, 3]
    and the choice PHT is 2-bit, as in the predictor.
    """
    hist = regs[HIST]
    hist_mask = params[0]
    cache_mask = params[1]
    choice_mask = params[2]
    tag_mask = params[3]
    n = pcs.shape[0]
    for i in range(n):
        pc = pcs[i]
        taken = outcomes[i]
        choice_index = pc & choice_mask
        bias = 1 if choice[choice_index] >= 2 else 0
        slot = (hist ^ pc) & cache_mask
        tag = pc & tag_mask
        # The exception cache of the *opposite* direction holds the
        # deviations from the bias.
        if bias == 1:
            tags = nt_tags
            valid = nt_valid
            ctr = nt_ctr
        else:
            tags = t_tags
            valid = t_valid
            ctr = t_ctr
        hit = valid[slot] != 0 and tags[slot] == tag
        if hit:
            predictions[i] = 1 if ctr[slot] >= 2 else 0
        else:
            predictions[i] = bias
        # Train the hit entry; allocate only when the branch went
        # against its bias and no exception entry covered it.
        if hit:
            v = ctr[slot]
            if taken != 0:
                if v < 3:
                    ctr[slot] = v + 1
            elif v > 0:
                ctr[slot] = v - 1
        elif taken != bias:
            tags[slot] = tag
            valid[slot] = 1
            ctr[slot] = 2 if taken != 0 else 1
        # Bi-mode partial update: a vindicated bias is left alone.
        if not ((bias != taken) and hit):
            v = choice[choice_index]
            if taken != 0:
                if v < 3:
                    choice[choice_index] = v + 1
            elif v > 0:
                choice[choice_index] = v - 1
        hist = ((hist << 1) | taken) & hist_mask
    regs[HIST] = hist


def bimode_step(pcs, outcomes, predictions, regs, params, taken_bank, not_taken_bank, choice):
    """One chunk of :class:`~repro.predictors.bimode.BiModePredictor`.

    ``regs = [history]``; ``params = [hist_mask, dir_mask,
    choice_mask]``.  All tables are 2-bit.
    """
    hist = regs[HIST]
    hist_mask = params[0]
    dir_mask = params[1]
    choice_mask = params[2]
    n = pcs.shape[0]
    for i in range(n):
        pc = pcs[i]
        taken = outcomes[i]
        choice_index = pc & choice_mask
        choose_taken = 1 if choice[choice_index] >= 2 else 0
        dir_index = (hist ^ pc) & dir_mask
        if choose_taken == 1:
            bank = taken_bank
        else:
            bank = not_taken_bank
        state = bank[dir_index]
        pred = 1 if state >= 2 else 0
        predictions[i] = pred
        # Only the selected bank trains; the other keeps its polarity.
        if taken != 0:
            if state < 3:
                bank[dir_index] = state + 1
        elif state > 0:
            bank[dir_index] = state - 1
        # Partial update: skip the choice PHT when its wrong choice was
        # covered by a correct bank prediction.
        if not ((choose_taken != taken) and (pred == taken)):
            v = choice[choice_index]
            if taken != 0:
                if v < 3:
                    choice[choice_index] = v + 1
            elif v > 0:
                choice[choice_index] = v - 1
        hist = ((hist << 1) | taken) & hist_mask
    regs[HIST] = hist


def filter_step(pcs, outcomes, predictions, regs, params, bias, count, pht, bht):
    """One chunk of :class:`~repro.predictors.filter.FilterPredictor`
    over a two-level backing predictor.

    ``regs = [backing_global_history]``; ``params = [filt_mask,
    threshold, max_count, history_kind (0 global / 1 per-address),
    index_scheme (0 concat / 1 xor), history_bits, pht_mask,
    pc_fill_bits, bht_mask, ctr_threshold, ctr_max, hist_mask]``.
    ``bht`` is the backing BHT rows (uint32; a 1-element dummy for
    global backings).
    """
    ghr = regs[HIST]
    filt_mask = params[0]
    threshold = params[1]
    max_count = params[2]
    history_kind = params[3]
    index_scheme = params[4]
    history_bits = params[5]
    pht_mask = params[6]
    pc_fill_bits = params[7]
    bht_mask = params[8]
    ctr_threshold = params[9]
    ctr_max = params[10]
    hist_mask = params[11]
    n = pcs.shape[0]
    for i in range(n):
        pc = pcs[i]
        taken = outcomes[i]
        slot = pc & filt_mask
        c = count[slot]
        filtered = c >= threshold
        # Backing index (cheap enough to compute unconditionally; the
        # backing is only *read* when the branch is unfiltered and only
        # *trained* likewise).
        if history_bits == 0:
            h = 0
        elif history_kind == 0:
            h = ghr
        else:
            h = bht[pc & bht_mask]
        if index_scheme == 0:
            index = ((h << pc_fill_bits) | (pc & ((1 << pc_fill_bits) - 1))) & pht_mask
        else:
            index = (h ^ pc) & pht_mask
        if filtered:
            predictions[i] = bias[slot]
        else:
            predictions[i] = 1 if pht[index] >= ctr_threshold else 0
        if not filtered:
            # Backing predictor trains and shifts history only on the
            # branches the filter lets through.
            v = pht[index]
            if taken != 0:
                if v < ctr_max:
                    pht[index] = v + 1
            elif v > 0:
                pht[index] = v - 1
            if history_bits != 0:
                if history_kind == 0:
                    ghr = ((ghr << 1) | taken) & hist_mask
                else:
                    b = pc & bht_mask
                    bht[b] = ((bht[b] << 1) | taken) & hist_mask
        # Run counter: extend a same-direction run, restart on a
        # transition (or first sighting).
        if c > 0 and bias[slot] == taken:
            if c < max_count:
                count[slot] = c + 1
        else:
            bias[slot] = taken
            count[slot] = 1
    regs[HIST] = ghr


def dhlf_step(pcs, outcomes, predictions, regs, params, pht, explore_misses):
    """One chunk of :class:`~repro.predictors.dhlf.DhlfPredictor`.

    ``regs = [ghr, history_length, interval_misses, interval_count,
    exploit_remaining, next_explore]``; ``params = [pht_mask, ghr_mask,
    interval, max_history, exploit_intervals]``.  ``explore_misses``
    is the per-length miss record of the current exploration sweep
    (int64, one slot per history length 0..max_history).
    """
    pht_mask = params[0]
    ghr_mask = params[1]
    interval = params[2]
    max_history = params[3]
    exploit_intervals = params[4]
    n = pcs.shape[0]
    for i in range(n):
        pc = pcs[i]
        taken = outcomes[i]
        length = regs[DHLF_LENGTH]
        hmask = (1 << length) - 1
        index = ((regs[DHLF_GHR] & hmask) ^ pc) & pht_mask
        state = pht[index]
        pred = 1 if state >= 2 else 0
        predictions[i] = pred
        if taken != 0:
            if state < 3:
                pht[index] = state + 1
        elif state > 0:
            pht[index] = state - 1
        regs[DHLF_GHR] = ((regs[DHLF_GHR] << 1) | taken) & ghr_mask
        regs[DHLF_INTERVAL_COUNT] += 1
        if pred != taken:
            regs[DHLF_INTERVAL_MISSES] += 1
        if regs[DHLF_INTERVAL_COUNT] >= interval:
            # Interval boundary: hill-climb the history length exactly
            # as DhlfPredictor._end_interval does.
            misses = regs[DHLF_INTERVAL_MISSES]
            regs[DHLF_INTERVAL_MISSES] = 0
            regs[DHLF_INTERVAL_COUNT] = 0
            if regs[DHLF_EXPLOIT_REMAINING] > 0:
                regs[DHLF_EXPLOIT_REMAINING] -= 1
                if regs[DHLF_EXPLOIT_REMAINING] == 0:
                    # Re-explore from scratch: queue = [0..max_history].
                    regs[DHLF_LENGTH] = 0
                    regs[DHLF_NEXT_EXPLORE] = 1
            else:
                explore_misses[regs[DHLF_LENGTH]] = misses
                if regs[DHLF_NEXT_EXPLORE] <= max_history:
                    regs[DHLF_LENGTH] = regs[DHLF_NEXT_EXPLORE]
                    regs[DHLF_NEXT_EXPLORE] += 1
                else:
                    # Sweep complete: exploit the first minimal length.
                    best = 0
                    for cand in range(1, max_history + 1):
                        if explore_misses[cand] < explore_misses[best]:
                            best = cand
                    regs[DHLF_LENGTH] = best
                    regs[DHLF_EXPLOIT_REMAINING] = exploit_intervals
