let ensure a i fill =
  if i < 0 then invalid_arg (Printf.sprintf "Dense.ensure: negative index %d" i);
  let n = Array.length a in
  if i < n then a
  else begin
    let grown = Array.make (max (2 * n) (i + 1)) fill in
    Array.blit a 0 grown 0 n;
    grown
  end
