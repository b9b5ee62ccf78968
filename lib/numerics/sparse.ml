type fbuf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

module FB = Bigarray.Array1

let fbuf_create n : fbuf =
  let b = FB.create Bigarray.Float64 Bigarray.C_layout (max n 0) in
  FB.fill b 0.0;
  b

type pattern = { n : int; colptr : int array; rowidx : int array }

exception Singular

let pattern_of_entries ~n entries =
  if n < 0 then invalid_arg "Sparse.pattern_of_entries: negative dimension";
  Array.iter
    (fun (r, c) ->
      if r < 0 || r >= n || c < 0 || c >= n then
        invalid_arg "Sparse.pattern_of_entries: index out of range")
    entries;
  let entries = Array.copy entries in
  Array.sort
    (fun (r1, c1) (r2, c2) ->
      if c1 <> c2 then compare c1 c2 else compare r1 r2)
    entries;
  let m = Array.length entries in
  (* count distinct positions *)
  let distinct = ref 0 in
  for i = 0 to m - 1 do
    if i = 0 || entries.(i) <> entries.(i - 1) then incr distinct
  done;
  let colptr = Array.make (n + 1) 0 in
  let rowidx = Array.make !distinct 0 in
  let k = ref 0 in
  for i = 0 to m - 1 do
    if i = 0 || entries.(i) <> entries.(i - 1) then begin
      let r, c = entries.(i) in
      colptr.(c + 1) <- colptr.(c + 1) + 1;
      rowidx.(!k) <- r;
      incr k
    end
  done;
  for c = 1 to n do
    colptr.(c) <- colptr.(c) + colptr.(c - 1)
  done;
  { n; colptr; rowidx }

let dim p = p.n
let nnz p = p.colptr.(p.n)

let pattern_equal a b =
  a.n = b.n && a.colptr = b.colptr && a.rowidx = b.rowidx

let pattern_hash p = Hashtbl.hash (p.n, p.colptr, p.rowidx)

let slot p ~row ~col =
  let lo = ref p.colptr.(col) and hi = ref (p.colptr.(col + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = p.rowidx.(mid) in
    if r = row then found := mid else if r < row then lo := mid + 1 else hi := mid - 1
  done;
  if !found < 0 then raise Not_found else !found

let mem p ~row ~col = match slot p ~row ~col with _ -> true | exception Not_found -> false

type t = { pat : pattern; vals : fbuf }

let create pat = { pat; vals = fbuf_create (nnz pat) }
let pattern m = m.pat
let clear m = FB.fill m.vals 0.0

let values m = m.vals

let add_at m ~row ~col v =
  let s = slot m.pat ~row ~col in
  FB.unsafe_set m.vals s (FB.unsafe_get m.vals s +. v)

let get_at m ~row ~col =
  match slot m.pat ~row ~col with
  | s -> FB.get m.vals s
  | exception Not_found -> 0.0

let to_dense m =
  let n = m.pat.n in
  let d = Mat.create n n in
  for c = 0 to n - 1 do
    for idx = m.pat.colptr.(c) to m.pat.colptr.(c + 1) - 1 do
      Mat.set d m.pat.rowidx.(idx) c (FB.get m.vals idx)
    done
  done;
  d

(* ------------------------------------------------------------------ *)
(* Factorization                                                       *)
(* ------------------------------------------------------------------ *)

(* The recorded schedule of one Gilbert–Peierls factorization:
   - [perm]/[pinv]: the row permutation (position <-> original row).
   - L columns ([lptr]/[lrows]): strictly-lower fill, rows kept as
     ORIGINAL row ids (resolved through [pinv] at solve time), values
     already divided by the pivot.
   - U columns ([eptr]/[eorder]): the elimination schedule — for column
     j, the original rows pivoted in earlier columns, in the exact
     (topological) order the elimination must visit them. U values are
     stored aligned with this order. *)
type schedule = {
  perm : int array;
  pinv : int array;
  lptr : int array;
  lrows : int array;
  eptr : int array;
  eorder : int array;
}

(* [recovered] holds the pivot orders that drift recoveries over this
   symbolic have produced, most recently used first, at most
   [max_recovered] of them. Every domain sharing the symbolic reads and
   extends it without a lock; its schedules are immutable, and which of
   them it holds decides only how fast a recovery finds its order, never
   the order found (see [recover]). *)
type symbolic = {
  spat : pattern;
  sched : schedule;
  recovered : schedule list Atomic.t;
}

let symbolic_pattern s = s.spat

(* relative threshold below which a replayed pivot is declared unstable *)
let pivot_tol = 1e-3

let max_recovered = 64

type growable = { mutable buf : int array; mutable vbuf : float array; mutable len : int }

let growable () = { buf = Array.make 64 0; vbuf = Array.make 64 0.0; len = 0 }

let push g i v =
  if g.len = Array.length g.buf then begin
    let nb = Array.make (2 * g.len) 0 and nv = Array.make (2 * g.len) 0.0 in
    Array.blit g.buf 0 nb 0 g.len;
    Array.blit g.vbuf 0 nv 0 g.len;
    g.buf <- nb;
    g.vbuf <- nv
  end;
  g.buf.(g.len) <- i;
  g.vbuf.(g.len) <- v;
  g.len <- g.len + 1

(* Full left-looking LU with partial pivoting; returns the schedule and
   the numeric factors it produced along the way. *)
let full_factor (m : t) =
  let { n; colptr; rowidx } = m.pat in
  let vals = m.vals in
  let pinv = Array.make n (-1) and perm = Array.make n (-1) in
  let x = Array.make n 0.0 in
  let flag = Array.make n (-1) in
  let lptr = Array.make (n + 1) 0 and eptr = Array.make (n + 1) 0 in
  let lg = growable () and eg = growable () in
  let dvals = Array.make n 0.0 in
  (* iterative DFS state *)
  let stack = Array.make (max n 1) 0 in
  let childs = Array.make (max n 1) 0 in
  let post = Array.make (max n 1) 0 in
  for j = 0 to n - 1 do
    lptr.(j) <- lg.len;
    eptr.(j) <- eg.len;
    (* 1. reachability DFS from the rows of A's column j over the graph
       of already-built L columns; global reverse postorder is a valid
       elimination (topological) order. *)
    let pcount = ref 0 in
    for idx = colptr.(j) to colptr.(j + 1) - 1 do
      let r0 = rowidx.(idx) in
      if flag.(r0) <> j then begin
        let sp = ref 0 in
        stack.(0) <- r0;
        childs.(0) <- 0;
        flag.(r0) <- j;
        while !sp >= 0 do
          let t = stack.(!sp) in
          let k = pinv.(t) in
          let deg = if k >= 0 then lptr.(k + 1) - lptr.(k) else 0 in
          if childs.(!sp) < deg then begin
            let ci = lptr.(k) + childs.(!sp) in
            childs.(!sp) <- childs.(!sp) + 1;
            let c = lg.buf.(ci) in
            if flag.(c) <> j then begin
              flag.(c) <- j;
              incr sp;
              stack.(!sp) <- c;
              childs.(!sp) <- 0
            end
          end
          else begin
            post.(!pcount) <- t;
            incr pcount;
            decr sp
          end
        done
      end
    done;
    (* 2. sparse triangular solve: scatter A(:,j), eliminate in reverse
       postorder *)
    for i = 0 to !pcount - 1 do
      x.(post.(i)) <- 0.0
    done;
    for idx = colptr.(j) to colptr.(j + 1) - 1 do
      x.(rowidx.(idx)) <- FB.get vals idx
    done;
    for i = !pcount - 1 downto 0 do
      let t = post.(i) in
      let k = pinv.(t) in
      if k >= 0 then begin
        let xt = x.(t) in
        push eg t xt;
        if xt <> 0.0 then
          for li = lptr.(k) to lptr.(k + 1) - 1 do
            let r = lg.buf.(li) in
            x.(r) <- x.(r) -. (lg.vbuf.(li) *. xt)
          done
      end
    done;
    (* 3. pivot: largest reached unpivoted row, with a mild preference
       for the diagonal (deterministic, fill-friendly for MNA) *)
    let prow = ref (-1) and pmax = ref 0.0 in
    for i = 0 to !pcount - 1 do
      let t = post.(i) in
      if pinv.(t) < 0 then begin
        let a = Float.abs x.(t) in
        if a > !pmax then begin
          pmax := a;
          prow := t
        end
      end
    done;
    if
      flag.(j) = j && pinv.(j) < 0
      && Float.abs x.(j) >= 0.1 *. !pmax
      && Float.abs x.(j) > 0.0
    then prow := j;
    if !prow < 0 || Float.abs x.(!prow) < 1e-300 then raise Singular;
    let piv = x.(!prow) in
    perm.(j) <- !prow;
    pinv.(!prow) <- j;
    dvals.(j) <- piv;
    for i = 0 to !pcount - 1 do
      let t = post.(i) in
      if pinv.(t) < 0 then push lg t (x.(t) /. piv)
    done
  done;
  lptr.(n) <- lg.len;
  eptr.(n) <- eg.len;
  let sched =
    {
      perm;
      pinv;
      lptr;
      lrows = Array.sub lg.buf 0 lg.len;
      eptr;
      eorder = Array.sub eg.buf 0 eg.len;
    }
  in
  (sched, Array.sub lg.vbuf 0 lg.len, Array.sub eg.vbuf 0 eg.len, dvals)

(* Process-wide counts across every workspace, for live metrics: a
   daemon scrape wants "how hard is the numeric core working", which
   per-workspace stats can't answer once workspaces are short-lived. *)
let analyses_total = Tally.make "solver.sparse_analyses_total"
let refactorizations_total = Tally.make "solver.sparse_refactorizations_total"
let solves_total = Tally.make "solver.sparse_solves_total"
let pivot_drift_total = Tally.make "solver.pivot_drift_total"
let pivot_order_hits_total = Tally.make "solver.pivot_order_hits_total"

type totals = {
  total_analyses : int;
  total_refactorizations : int;
  total_solves : int;
  total_pivot_drift : int;
  total_pivot_order_hits : int;
}

let totals () =
  {
    total_analyses = Tally.get analyses_total;
    total_refactorizations = Tally.get refactorizations_total;
    total_solves = Tally.get solves_total;
    total_pivot_drift = Tally.get pivot_drift_total;
    total_pivot_order_hits = Tally.get pivot_order_hits_total;
  }

let analyze m =
  Tally.incr analyses_total;
  let sched, _, _, _ = full_factor m in
  { spat = m.pat; sched; recovered = Atomic.make [] }

type stats = { analyses : int; refactorizations : int; solves : int }

type numeric = {
  nsym : symbolic;
  mutable nsched : schedule;
  mutable lvals : fbuf;
  mutable uvals : fbuf;
  mutable dvals : fbuf;
  nx : float array;  (* scatter workspace *)
  ny : float array;  (* solve workspace *)
  mutable factored : bool;
  mutable n_analyses : int;
  mutable n_refactorizations : int;
  mutable n_solves : int;
}

let create_numeric sym =
  let n = sym.spat.n in
  {
    nsym = sym;
    nsched = sym.sched;
    lvals = fbuf_create sym.sched.lptr.(n);
    uvals = fbuf_create sym.sched.eptr.(n);
    dvals = fbuf_create n;
    nx = Array.make (max n 1) 0.0;
    ny = Array.make (max n 1) 0.0;
    factored = false;
    n_analyses = 0;
    n_refactorizations = 0;
    n_solves = 0;
  }

(* Unchecked array access for the replay and solve loops ([pick],
   [replay], [solve]), which run at every Newton iteration. Their
   indices come from a schedule [full_factor] built for the pattern
   [refactorize] checked, so they lie in [0, n) for the scatter and
   solve arrays ([solve] checks [b] and [x]) and within [lptr]/[eptr]
   for the value buffers, which [fit] and [create_numeric] size to the
   schedule. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* [full_factor]'s pivot rule at column [j] of schedule [s], given the
   eliminated column in [x]: the candidates are the rows not pivoted
   before [j] that the column reaches, [perm.(j)] and [lrows] of column
   [j]. Returns the diagonal [j] when it is a candidate within 0.1 of
   the largest magnitude (and nonzero), else the unique largest (NaN
   never counts); -1 when [full_factor] would raise {!Singular} or
   break an exact tie by its DFS post-order, which [s] does not
   record. *)
let pick s (x : float array) j =
  let { perm; lptr; lrows; _ } = s in
  let best = ref (-1) and pmax = ref 0.0 and tied = ref false in
  let diag = ref false in
  (* index [lptr.(j) - 1] stands for [perm.(j)] *)
  for i = lptr.!(j) - 1 to lptr.!(j + 1) - 1 do
    let t = if i < lptr.!(j) then perm.!(j) else lrows.!(i) in
    if t = j then diag := true;
    let a = Float.abs x.!(t) in
    if a > !pmax then begin
      pmax := a;
      best := t;
      tied := false
    end
    else if a = !pmax && a > 0.0 then tied := true
  done;
  let aj = Float.abs x.!(j) in
  let p =
    if !diag && aj >= 0.1 *. !pmax && aj > 0.0 then j
    else if !tied then -1
    else !best
  in
  if p >= 0 && Float.abs x.!(p) >= 1e-300 then p else -1

exception Drift of int

(* Numeric replay of schedule [s] from column [from] on, into [num]'s
   buffers (which must hold [s]'s sizes). Raises [Drift j] at the first
   column [j] whose pivot does not hold: under [~strict] a pivot holds
   when it is the row [pick] names, otherwise when it is at least
   [pivot_tol] of its column's magnitude. *)
let replay num s (m : t) ~strict ~from =
  let { perm; pinv; lptr; lrows; eptr; eorder } = s in
  let { colptr; rowidx; n } = m.pat in
  let vals = m.vals in
  let lvals = num.lvals and uvals = num.uvals and dvals = num.dvals in
  let x = num.nx in
  for j = from to n - 1 do
    for i = eptr.!(j) to eptr.!(j + 1) - 1 do
      x.!(eorder.!(i)) <- 0.0
    done;
    for i = lptr.!(j) to lptr.!(j + 1) - 1 do
      x.!(lrows.!(i)) <- 0.0
    done;
    x.!(perm.!(j)) <- 0.0;
    for idx = colptr.!(j) to colptr.!(j + 1) - 1 do
      x.!(rowidx.!(idx)) <- FB.unsafe_get vals idx
    done;
    for i = eptr.!(j) to eptr.!(j + 1) - 1 do
      let t = eorder.!(i) in
      let xt = x.!(t) in
      FB.unsafe_set uvals i xt;
      if xt <> 0.0 then begin
        let k = pinv.!(t) in
        for li = lptr.!(k) to lptr.!(k + 1) - 1 do
          let r = lrows.!(li) in
          x.!(r) <- x.!(r) -. (FB.unsafe_get lvals li *. xt)
        done
      end
    done;
    let piv = x.!(perm.!(j)) in
    if strict then begin
      if pick s x j <> perm.!(j) then raise (Drift j)
    end
    else begin
      let apiv = Float.abs piv in
      let cmax = ref apiv in
      for i = lptr.!(j) to lptr.!(j + 1) - 1 do
        let a = Float.abs x.!(lrows.!(i)) in
        if a > !cmax then cmax := a
      done;
      if apiv < 1e-300 || apiv < pivot_tol *. !cmax then raise (Drift j)
    end;
    FB.unsafe_set dvals j piv;
    for i = lptr.!(j) to lptr.!(j + 1) - 1 do
      FB.unsafe_set lvals i (x.!(lrows.!(i)) /. piv)
    done
  done

(* Make [num]'s [L]/[U] buffers hold schedule [s], keeping the values of
   the columns before [from]. *)
let fit num s ~from =
  let grow buf size keep =
    if FB.dim buf >= size then buf
    else begin
      let b = fbuf_create size in
      FB.blit (FB.sub buf 0 keep) (FB.sub b 0 keep);
      b
    end
  in
  let n = Array.length s.perm in
  num.lvals <- grow num.lvals s.lptr.(n) s.lptr.(from);
  num.uvals <- grow num.uvals s.eptr.(n) s.eptr.(from)

(* whether [c] shares [s]'s pivots before column [j] and takes [row]
   at [j]: exactly when [c]'s replay agrees with [s]'s through column
   [j - 1] and its column [j] can pass under [pick] *)
let continues s ~j ~row c =
  c.perm.(j) = row
  &&
  let rec same i = i >= j || (c.perm.(i) = s.perm.(i) && same (i + 1)) in
  same 0

let rec remember sym s =
  let old = Atomic.get sym.recovered in
  let kept = List.filteri (fun i _ -> i < max_recovered - 1) old in
  if not (Atomic.compare_and_set sym.recovered old (s :: kept)) then
    remember sym s

(* move-to-front, best effort: a lost race only leaves the order as it
   was *)
let promote sym s =
  match Atomic.get sym.recovered with
  | c :: _ when c == s -> ()
  | old ->
    if List.memq s old then
      ignore
        (Atomic.compare_and_set sym.recovered old
           (s :: List.filter (fun c -> c != s) old))

(* Recover from a drifted replay with the schedule [full_factor] would
   build for these values. A strict replay of a known schedule that
   passes every column is that schedule: by induction over the columns,
   equal pivots before [j] give column [j] the same structure, hence the
   same arithmetic in the same order and the same values, and at [j]
   [pick] names [full_factor]'s own pivot. When a strict replay fails at
   [j], [pick] (when defined) names the pivot any passing schedule must
   take there, so the search resumes at [j] in a known schedule that
   agrees with the columns already replayed; if none does, or [pick]
   is undefined, [full_factor] runs and its schedule joins the set. *)
let recover num (m : t) =
  let sym = num.nsym in
  let rec search s from =
    fit num s ~from;
    match replay num s m ~strict:true ~from with
    | () -> Some s
    | exception Drift j ->
      let row = pick s num.nx j in
      if row < 0 then None
      else
        match
          List.find_opt (continues s ~j ~row) (sym.sched :: Atomic.get sym.recovered)
        with
        | Some c -> search c j
        | None -> None
  in
  let first =
    match Atomic.get sym.recovered with c :: _ -> c | [] -> sym.sched
  in
  match search first 0 with
  | Some s ->
    Tally.incr pivot_order_hits_total;
    num.nsched <- s;
    promote sym s
  | None ->
    num.n_analyses <- num.n_analyses + 1;
    Tally.incr analyses_total;
    let sched, lv, uv, dv = full_factor m in
    num.nsched <- sched;
    fit num sched ~from:0;
    Array.iteri (fun i v -> FB.unsafe_set num.lvals i v) lv;
    Array.iteri (fun i v -> FB.unsafe_set num.uvals i v) uv;
    Array.iteri (fun i v -> FB.unsafe_set num.dvals i v) dv;
    remember sym sched

let refactorize num (m : t) =
  (* contexts of one topology share their pattern physically, so the
     structural walk is only the fallback *)
  if not (num.nsym.spat == m.pat || pattern_equal num.nsym.spat m.pat) then
    invalid_arg "Sparse.refactorize: pattern mismatch";
  num.n_refactorizations <- num.n_refactorizations + 1;
  Tally.incr refactorizations_total;
  (try replay num num.nsched m ~strict:false ~from:0
   with Drift _ ->
     (* the replayed pivot order went stale for these values *)
     Tally.incr pivot_drift_total;
     recover num m);
  num.factored <- true

let solve num ~b ~x =
  if not num.factored then
    invalid_arg "Sparse.solve: refactorize before solving";
  let { perm; pinv; lptr; lrows; eptr; eorder } = num.nsched in
  let n = num.nsym.spat.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Sparse.solve: dimension mismatch";
  num.n_solves <- num.n_solves + 1;
  Tally.incr solves_total;
  let y = num.ny in
  let lvals = num.lvals and uvals = num.uvals and dvals = num.dvals in
  (* y = P b *)
  for k = 0 to n - 1 do
    y.!(k) <- b.!(perm.!(k))
  done;
  (* forward: L y' = y (unit diagonal) *)
  for k = 0 to n - 1 do
    let t = y.!(k) in
    if t <> 0.0 then
      for li = lptr.!(k) to lptr.!(k + 1) - 1 do
        let p = pinv.!(lrows.!(li)) in
        y.!(p) <- y.!(p) -. (FB.unsafe_get lvals li *. t)
      done
  done;
  (* backward: U x = y', column-oriented *)
  for j = n - 1 downto 0 do
    let xj = y.!(j) /. FB.unsafe_get dvals j in
    x.!(j) <- xj;
    if xj <> 0.0 then
      for i = eptr.!(j) to eptr.!(j + 1) - 1 do
        let p = pinv.!(eorder.!(i)) in
        y.!(p) <- y.!(p) -. (FB.unsafe_get uvals i *. xj)
      done
  done

let lu_nnz num =
  let n = num.nsym.spat.n in
  num.nsched.lptr.(n) + num.nsched.eptr.(n) + n

let stats num =
  {
    analyses = num.n_analyses;
    refactorizations = num.n_refactorizations;
    solves = num.n_solves;
  }
