let c re im = { Complex.re; im }
let re (z : Complex.t) = z.re
let im (z : Complex.t) = z.im
let magnitude = Complex.norm
let phase_rad = Complex.arg
let phase_deg z = Complex.arg z *. 180.0 /. Float.pi
let db z = 20.0 *. log10 (Complex.norm z)

let approx_equal ?(tol = 1e-9) a b = Complex.norm (Complex.sub a b) <= tol

type t = { n : int; a : Complex.t array }

exception Singular

let create n = { n; a = Array.make (n * n) Complex.zero }
let dim m = m.n
let get m i j = m.a.((i * m.n) + j)
let set m i j v = m.a.((i * m.n) + j) <- v
let add_to m i j v = m.a.((i * m.n) + j) <- Complex.add m.a.((i * m.n) + j) v

let solve m b =
  let n = m.n in
  if Array.length b <> n then invalid_arg "Cxm.solve: dimension mismatch";
  let a = Array.copy m.a in
  let x = Array.copy b in
  let idx i j = (i * n) + j in
  for k = 0 to n - 1 do
    let pmax = ref (Complex.norm a.(idx k k)) in
    let prow = ref k in
    for i = k + 1 to n - 1 do
      let v = Complex.norm a.(idx i k) in
      if v > !pmax then begin
        pmax := v;
        prow := i
      end
    done;
    if !pmax < 1e-300 then raise Singular;
    if !prow <> k then begin
      for j = k to n - 1 do
        let tmp = a.(idx k j) in
        a.(idx k j) <- a.(idx !prow j);
        a.(idx !prow j) <- tmp
      done;
      let tb = x.(k) in
      x.(k) <- x.(!prow);
      x.(!prow) <- tb
    end;
    let pivot = a.(idx k k) in
    for i = k + 1 to n - 1 do
      let f = Complex.div a.(idx i k) pivot in
      if f <> Complex.zero then begin
        for j = k to n - 1 do
          a.(idx i j) <- Complex.sub a.(idx i j) (Complex.mul f a.(idx k j))
        done;
        x.(i) <- Complex.sub x.(i) (Complex.mul f x.(k))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := Complex.sub !acc (Complex.mul a.(idx i j) x.(j))
    done;
    x.(i) <- Complex.div !acc a.(idx i i)
  done;
  x
